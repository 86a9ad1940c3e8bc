//! Host facts the report carries.

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// FNV-1a, to show which input bytes a run used.
pub fn fnv64(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in chunk.as_ref() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_a_positive_peak() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(super::peak_rss_mb() > 0.0);
        }
        assert_ne!(super::fnv64([b"a"]), super::fnv64([b"b"]));
    }
}
