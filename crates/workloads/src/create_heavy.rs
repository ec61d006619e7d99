//! The create-heavy workload: "clients creating files in private
//! directories ... heavily studied in HPC, mostly due to
//! checkpoint-restart" (paper §V-B1).
//!
//! Each of `clients` clients creates `files_per_client` files in its own
//! directory. 100 K files per client is the paper's standard size ("100K
//! is the maximum recommended size of a directory in CephFS"); up to 20
//! clients saturate one MDS.

/// Parameters for the private-directory create workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateHeavy {
    /// Number of concurrent clients.
    pub clients: u32,
    /// Creates each client performs in its private directory.
    pub files_per_client: u64,
}

impl CreateHeavy {
    /// The paper's reference point: one client, 100 K creates.
    pub fn paper_baseline() -> CreateHeavy {
        CreateHeavy {
            clients: 1,
            files_per_client: 100_000,
        }
    }

    /// The paper's scaling sweep: 1..=20 clients, 100 K creates each.
    pub fn paper_sweep() -> impl Iterator<Item = CreateHeavy> {
        [1u32, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
            .into_iter()
            .map(|clients| CreateHeavy {
                clients,
                files_per_client: 100_000,
            })
    }

    /// Total creates across all clients.
    pub fn total_ops(&self) -> u64 {
        self.clients as u64 * self.files_per_client
    }

    /// Private directory paths, one per client.
    pub fn dirs(&self) -> Vec<String> {
        (0..self.clients).map(client_dir).collect()
    }
}

/// The private directory path for client `c`.
pub fn client_dir(c: u32) -> String {
    format!("/clients/dir{c}")
}

/// The `i`-th file name a client creates (mdtest-style).
pub fn file_name(client: u32, i: u64) -> String {
    let mut name = String::new();
    write_file_name(&mut name, client, i);
    name
}

/// [`file_name`] written over `out`, so a process issuing one create per
/// step formats every name into the one buffer it keeps. The name is
/// assembled back to front in a stack buffer and appended once: this runs
/// once per create, and going through `core::fmt` cost a tenth of a
/// decoupled merge run's CPU.
pub fn write_file_name(out: &mut String, client: u32, i: u64) {
    // "file." + u32::MAX + "." + u64::MAX.
    let mut buf = [0u8; 36];
    let end = buf.len();
    let mut at = prepend_decimal(&mut buf, end, i);
    at -= 1;
    buf[at] = b'.';
    at = prepend_decimal(&mut buf, at, u64::from(client));
    at -= 5;
    buf[at..at + 5].copy_from_slice(b"file.");
    out.clear();
    out.push_str(std::str::from_utf8(&buf[at..]).expect("the name is ASCII"));
}

/// Writes `n` in decimal, as `{n}` would, into `buf` so that it ends just
/// before `end`; returns where it starts.
fn prepend_decimal(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let w = CreateHeavy::paper_baseline();
        assert_eq!(w.total_ops(), 100_000);
        assert_eq!(w.dirs(), vec!["/clients/dir0"]);
    }

    #[test]
    fn sweep_covers_one_to_twenty() {
        let points: Vec<CreateHeavy> = CreateHeavy::paper_sweep().collect();
        assert_eq!(points.first().unwrap().clients, 1);
        assert_eq!(points.last().unwrap().clients, 20);
        assert!(points.iter().all(|p| p.files_per_client == 100_000));
    }

    #[test]
    fn names_match_the_format_macro() {
        let mut out = String::from("stale contents");
        let mut check = |c: u32, i: u64| {
            write_file_name(&mut out, c, i);
            assert_eq!(out, format!("file.{c}.{i}"));
        };
        let edges = [0, 1, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for &c in &[0, 9, 10, u32::MAX] {
            for &i in &edges {
                check(c, i);
            }
        }
        // Seeded splitmix64 draws, at every magnitude.
        let mut x = 0x5eed_u64;
        for k in 0..2_000u32 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            check(z as u32 >> (k % 32), z >> (k % 64));
        }
    }

    #[test]
    fn names_are_unique_across_clients() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for c in 0..3 {
            for i in 0..100 {
                assert!(seen.insert(file_name(c, i)));
            }
        }
        assert_ne!(client_dir(0), client_dir(1));
    }
}
