//! The sliced [`crc32`] against the byte-at-a-time loop it replaced: the
//! same IEEE CRC-32 for every tail length at every alignment of the input
//! slice, and for random inputs up to 4 KiB.

use dmi_kernel::crc32;
use proptest::prelude::*;

/// The reference: one table lookup per byte, reflected polynomial
/// `0xEDB88320`.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[test]
fn oracle_matches_the_standard_check_value() {
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_short_length_at_every_offset() {
    // Lengths up to three 16-byte steps: every tail after 0, 1 and 2
    // steps, each starting at every offset within a block.
    let buf: Vec<u8> = (0..64u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    for offset in 0..16 {
        for len in 0..=48 {
            let slice = &buf[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "offset {offset}, len {len}"
            );
        }
    }
}

#[test]
fn one_mebibyte_of_zeros() {
    let zeros = vec![0u8; 1 << 20];
    assert_eq!(crc32(&zeros), 0xA738_EA1C);
    assert_eq!(crc32_bytewise(&zeros), 0xA738_EA1C);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random contents of any length up to 4,111 bytes (256 steps of 16
    /// plus the longest tail), at a random start offset within a 16-byte
    /// block of a larger buffer.
    #[test]
    fn sliced_matches_bytewise(
        data in proptest::collection::vec(any::<u8>(), 0..=4111usize),
        offset in 0usize..16,
    ) {
        let mut buf = vec![0xA5u8; offset + data.len() + 16];
        buf[offset..offset + data.len()].copy_from_slice(&data);
        let slice = &buf[offset..offset + data.len()];
        prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
    }
}
