//! `vedliot-perfbench --workload <keyword|ota|object> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the metric table and, as the last line, the JSON result.
//! Exits 0 only when every output and audit checked out.

use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0_u64, 10.0_f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <keyword|ota|object> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match vedliot_perfbench::run(&workload, seed, seconds, trace) {
        Ok((report, text)) => {
            println!("{text}");
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output or audit check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
