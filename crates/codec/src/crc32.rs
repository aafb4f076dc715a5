//! CRC-32 (IEEE 802.3, reflected), table-driven.
//!
//! The one checksum of the system: `dbgc-net` guards every wire frame with
//! it and `dbgc` guards the spatial-index trailer with it.

const fn table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = table();

/// Fold `data` into a running CRC register. A checksum starts the register
/// at `0xFFFF_FFFF` and inverts it after the last byte, so a message split
/// across several calls checks exactly as [`crc32`] of its concatenation.
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}
