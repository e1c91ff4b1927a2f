//! SHA-256 and HMAC-SHA256, implemented from scratch.
//!
//! These are the measurement and signing primitives under the enclave,
//! secure-boot and attestation models. The implementation follows FIPS
//! 180-4 / RFC 2104 and is verified against published test vectors.

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 message block size in bytes, also the HMAC key block size.
const BLOCK: usize = 64;

/// Computes the SHA-256 digest of `data`.
///
/// Allocation-free: full blocks are compressed straight from `data`,
/// and only the padded tail is assembled in a stack buffer.
///
/// ```
/// use vedliot_trust::hash::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(digest[0], 0xba);
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    finish(H0, 0, data)
}

/// Hashes `data` onward from state `h`, which has already absorbed
/// `absorbed` bytes (a whole number of blocks), and returns the digest.
fn finish(mut h: [u32; 8], absorbed: u64, data: &[u8]) -> [u8; 32] {
    let (blocks, rest) = data.as_chunks::<BLOCK>();
    for block in blocks {
        compress(&mut h, block);
    }
    // Padding: rest || 0x80 || zeros || 64-bit big-endian bit length,
    // filling one block, or two when fewer than 9 bytes remain free.
    let mut tail = [0u8; 2 * BLOCK];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < BLOCK - 8 {
        BLOCK
    } else {
        2 * BLOCK
    };
    let bit_len = (absorbed + data.len() as u64) * 8;
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].as_chunks::<BLOCK>().0 {
        compress(&mut h, block);
    }

    let mut out = [0u8; 32];
    for (o, word) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function on one block (FIPS 180-4 §6.2.2).
fn compress(h: &mut [u32; 8], block: &[u8; BLOCK]) {
    let mut w = [0u32; 64];
    for (wi, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*word);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (x, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *x = x.wrapping_add(v);
    }
}

/// HMAC-SHA256 (RFC 2104).
///
/// Allocation-free: the key pad is compressed as the first block of each
/// pass, and the message and inner digest are hashed on from there.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let keyed = |pad: u8| {
        let mut h = H0;
        compress(&mut h, &key_block.map(|b| b ^ pad));
        h
    };
    let inner = finish(keyed(0x36), BLOCK as u64, message);
    finish(keyed(0x5c), BLOCK as u64, &inner)
}

/// Renders a digest as lowercase hex (for logs and reports).
#[must_use]
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original byte-vector implementation: pads a copy of the whole
    /// message, then compresses it block by block.
    fn sha256_reference(data: &[u8]) -> [u8; 32] {
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];

        // Padding: message || 0x80 || zeros || 64-bit bit length.
        let bit_len = (data.len() as u64) * 8;
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&bit_len.to_be_bytes());

        for chunk in message.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let temp1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }

        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The original HMAC: concatenates key pads and messages in vectors.
    fn hmac_sha256_reference(key: &[u8], message: &[u8]) -> [u8; 32] {
        const BLOCK: usize = 64;
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256_reference(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Vec::with_capacity(BLOCK + message.len());
        let mut outer = Vec::with_capacity(BLOCK + 32);
        for &b in &key_block {
            inner.push(b ^ 0x36);
        }
        inner.extend_from_slice(message);
        let inner_hash = sha256_reference(&inner);
        for &b in &key_block {
            outer.push(b ^ 0x5c);
        }
        outer.extend_from_slice(&inner_hash);
        sha256_reference(&outer)
    }

    /// The allocation-free digests equal the original implementation's
    /// at every length that ends a message inside, on or across a block
    /// boundary, and the HMACs for keys below, at and above a block.
    #[test]
    fn allocation_free_hashing_matches_reference_at_every_length() {
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=300 {
            let msg = &data[..len];
            assert_eq!(sha256(msg), sha256_reference(msg), "sha256 len {len}");
            for key_len in [0, 5, 32, 63, 64, 65, 131] {
                let key = &data[300 - key_len..];
                assert_eq!(
                    hmac_sha256(key, msg),
                    hmac_sha256_reference(key, msg),
                    "hmac key {key_len} len {len}"
                );
            }
        }
    }

    /// FIPS 180-4 test vectors.
    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// A multi-block message (crosses the 64-byte boundary).
    #[test]
    fn sha256_long_message() {
        let msg = vec![b'a'; 1_000];
        // Reference value computed with a known-good implementation.
        assert_eq!(
            to_hex(&sha256(&msg)),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    /// RFC 4231 test case 2 (short key "Jefe").
    #[test]
    fn hmac_known_vector() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 1 (0x0b * 20 key, "Hi There").
    #[test]
    fn hmac_known_vector_binary_key() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed_first() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
