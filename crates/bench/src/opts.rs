//! Minimal command-line options shared by every figure (`lab run <name>
//! [options]`).
//!
//! Figures default to a reduced scale (fewer nodes, a smaller file) so
//! the entire figure suite runs in minutes; `--full` switches to the paper's
//! workload sizes. No external argument-parsing crate is used — the option
//! surface is tiny and fixed.

use desim::SimTime;

/// The experiment seed a figure runs at and a sweep's seeds start from,
/// unless `--seed` says otherwise.
pub const EXPERIMENT_SEED: u64 = 20050410;

/// Options accepted by every figure.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Number of overlay participants (including the source).
    pub nodes: Option<usize>,
    /// File size in MiB.
    pub file_mb: Option<f64>,
    /// Block size in KiB.
    pub block_kb: Option<u32>,
    /// Experiment seed.
    pub seed: u64,
    /// Use the paper's full workload sizes.
    pub full: bool,
    /// Also emit the figure as JSON to this path.
    pub json: Option<String>,
    /// Virtual-time limit in seconds.
    pub time_limit: f64,
    /// Probe sampling tick in virtual seconds (time-series scenarios only).
    pub tick: Option<f64>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            nodes: None,
            file_mb: None,
            block_kb: None,
            seed: EXPERIMENT_SEED,
            full: false,
            json: None,
            time_limit: 7200.0,
            tick: None,
        }
    }
}

impl CommonOpts {
    /// Parses options from an iterator of arguments (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = CommonOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value_for = |name: &str| -> Result<String, String> {
                it.next()
                    .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
            };
            match arg.as_str() {
                "--nodes" => opts.nodes = Some(parse_num(&value_for("--nodes")?)?),
                "--mb" => opts.file_mb = Some(parse_num(&value_for("--mb")?)?),
                "--block-kb" => opts.block_kb = Some(parse_num(&value_for("--block-kb")?)?),
                "--seed" => opts.seed = parse_num(&value_for("--seed")?)?,
                "--time-limit" => opts.time_limit = parse_num(&value_for("--time-limit")?)?,
                "--tick" => opts.tick = Some(parse_num(&value_for("--tick")?)?),
                "--json" => opts.json = Some(value_for("--json")?),
                "--full" => opts.full = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown option {other}\n{USAGE}")),
            }
        }
        // Values a runner would panic on, or turn into an all-NaN figure.
        // Below 2^22 MiB a file has fewer than 2^32 blocks even at 1 KiB, and
        // a limit past `SimTime::MAX` would saturate warmup and horizon alike.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let one_byte = 1.0 / (1024.0 * 1024.0);
        let max_mb = f64::from(u32::MAX) / 1024.0;
        let rule = if opts.nodes.is_some_and(|n| n < 2) {
            "--nodes must be at least 2"
        } else if opts
            .file_mb
            .is_some_and(|mb| !(one_byte..=max_mb).contains(&mb))
        {
            "--mb must be at least one byte and below 4194304"
        } else if opts
            .block_kb
            .is_some_and(|kb| kb == 0 || kb > u32::MAX / 1024)
        {
            "--block-kb must be in 1..=4194303"
        } else if !(positive(opts.time_limit) && opts.time_limit <= SimTime::MAX.as_secs_f64()) {
            "--time-limit must be positive and within SimTime's range (about 1.8e10 s)"
        } else if opts.tick.is_some_and(|t| !positive(t)) {
            "--tick must be finite and positive"
        } else {
            return Ok(opts);
        };
        Err(format!("{rule}\n{USAGE}"))
    }

    /// Node count to use given a reduced default and the paper's value.
    pub fn nodes_or(&self, reduced: usize, paper: usize) -> usize {
        self.nodes
            .unwrap_or(if self.full { paper } else { reduced })
    }

    /// File size (bytes) to use given a reduced default and the paper's value
    /// in MiB.
    pub fn file_bytes_or(&self, reduced_mb: f64, paper_mb: f64) -> u64 {
        let mb = self
            .file_mb
            .unwrap_or(if self.full { paper_mb } else { reduced_mb });
        (mb * 1024.0 * 1024.0) as u64
    }

    /// Block size (bytes) to use given the paper's value in KiB.
    pub fn block_bytes_or(&self, paper_kb: u32) -> u32 {
        self.block_kb.unwrap_or(paper_kb) * 1024
    }
}

const USAGE: &str = "figure options: [--nodes N] [--mb M] [--block-kb K] [--seed S] \
[--time-limit SECS] [--tick SECS] [--full] [--json PATH]";

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse '{s}'\n{USAGE}"))
}

/// Writes a figure to a JSON file, if the shared options name one, and then
/// to `out`: a reader that closes `out` early still gets the file.
///
/// # Errors
///
/// Returns `out`'s error, or one naming the JSON file if that cannot be
/// written.
pub fn emit(
    figure: &crate::cdf::Figure,
    opts: &CommonOpts,
    out: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    if let Some(path) = &opts.json {
        std::fs::write(path, figure.to_json())
            .map_err(|e| std::io::Error::other(format!("failed to write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    out.write_all(figure.render_text().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonOpts, String> {
        CommonOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_reduced_scale() {
        let o = parse(&[]).unwrap();
        assert!(!o.full);
        assert_eq!(o.nodes_or(40, 100), 40);
        assert_eq!(o.file_bytes_or(10.0, 100.0), 10 * 1024 * 1024);
        assert_eq!(o.block_bytes_or(16), 16 * 1024);
    }

    #[test]
    fn full_switches_to_paper_scale() {
        let o = parse(&["--full"]).unwrap();
        assert_eq!(o.nodes_or(40, 100), 100);
        assert_eq!(o.file_bytes_or(10.0, 100.0), 100 * 1024 * 1024);
    }

    #[test]
    fn explicit_values_override_everything() {
        let o = parse(&[
            "--full",
            "--nodes",
            "12",
            "--mb",
            "2.5",
            "--block-kb",
            "8",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(o.nodes_or(40, 100), 12);
        assert_eq!(o.file_bytes_or(10.0, 100.0), (2.5 * 1024.0 * 1024.0) as u64);
        assert_eq!(o.block_bytes_or(16), 8192);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--raw"])
            .unwrap_err()
            .starts_with("unknown option --raw"));
        assert!(parse(&["--nodes"]).is_err());
        assert!(parse(&["--nodes", "abc"]).is_err());
    }

    #[test]
    fn tick_must_be_positive() {
        assert_eq!(parse(&["--tick", "2.5"]).unwrap().tick, Some(2.5));
        // Values a runner would panic on (or turn into an all-NaN figure)
        // are usage errors.
        for (flag, bad) in [
            ("--tick", &["0", "-1", "NaN", "inf"][..]),
            ("--nodes", &["0", "1"]),
            ("--mb", &["0", "-1", "NaN", "inf", "1e-9", "4194304"]),
            ("--block-kb", &["0", "4194304"]),
            ("--time-limit", &["0", "-5", "NaN", "inf", "1e30"]),
        ] {
            for value in bad {
                let err = parse(&[flag, value]).unwrap_err();
                assert!(err.starts_with(flag), "{flag} {value}: {err}");
            }
        }
        assert_eq!(parse(&["--nodes", "2"]).unwrap().nodes, Some(2));
        assert_eq!(parse(&["--mb", "0.001"]).unwrap().file_mb, Some(0.001));
    }
}
