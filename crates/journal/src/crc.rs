//! CRC-32 (IEEE 802.3, the polynomial Ceph uses for journal entry
//! checksums). Slice-by-8 table lookup, no external dependency.

/// Lookup tables for the reflected polynomial 0xEDB88320. `TABLES[0]` is
/// the classic bytewise table; `TABLES[k][b]` is the register after byte
/// `b` followed by `k` zero bytes, which is what lets eight input bytes
/// fold into the register with eight independent lookups.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data` (initial value 0xFFFFFFFF, final XOR 0xFFFFFFFF —
/// the standard IEEE variant).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed the *raw* running register (start from
/// `0xFFFFFFFF`, XOR with `0xFFFFFFFF` when done).
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello world, this is a journal event payload";
        let oneshot = crc32(data);
        let mut crc = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            crc = crc32_update(crc, chunk);
        }
        assert_eq!(crc ^ 0xFFFF_FFFF, oneshot);
    }

    /// The sliced loop against the bit-at-a-time definition, at every
    /// length around the 8-byte chunking and at every split point.
    #[test]
    fn sliced_matches_bitwise_at_every_length_and_split() {
        fn bitwise(mut crc: u32, data: &[u8]) -> u32 {
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            crc
        }
        let data: Vec<u8> = (0..67u32).map(|i| (i * 151 + 13) as u8).collect();
        for len in 0..=data.len() {
            let want = bitwise(0xFFFF_FFFF, &data[..len]);
            assert_eq!(crc32_update(0xFFFF_FFFF, &data[..len]), want, "len {len}");
            for split in 0..=len {
                let head = crc32_update(0xFFFF_FFFF, &data[..split]);
                assert_eq!(crc32_update(head, &data[split..len]), want);
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"journal entry".to_vec();
        let clean = crc32(&data);
        data[3] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
