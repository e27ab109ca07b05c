//! The CGN benchmark: three seeded workloads that drive the engine,
//! the traffic driver and the operator layers through their public
//! functions, each printing its end-to-end metrics (untraced run) or
//! its per-layer metrics (traced run) and checking its outputs.
//!
//! ```text
//! perfbench --workload replay|dimensioning|soak --seed N --seconds S
//!           --trace 0|1 [--smoke] [--pinned NAME=HEX]...
//! ```
//!
//! `--pinned` gives the expected digest of a named output; a mismatch
//! makes the run incorrect. `--smoke` shrinks every workload to
//! seconds for the self-test. The last stdout line is the JSON result.

mod dimensioning;
mod replay;
mod report;
mod soak;

/// What one invocation asks for.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds the timed phase should last.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pinned: Vec<(String, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut pinned = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--pinned" => {
                let (name, hex) = value
                    .split_once('=')
                    .ok_or("--pinned wants NAME=HEX".to_string())?;
                let digest =
                    u64::from_str_radix(hex, 16).map_err(|e| format!("--pinned {name}: {e}"))?;
                pinned.push((name.to_string(), digest));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        smoke,
        pinned,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (mut out, produced) = match args.workload.as_str() {
        "replay" => replay::run(&args),
        "dimensioning" => dimensioning::run(&args),
        "soak" => soak::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for (name, got) in &produced {
        println!("  output digest {name} = {got:016x}");
        if let Some((_, expected)) = args.pinned.iter().find(|(n, _)| n == name) {
            out.check_digest(format!("{name} (pinned)"), *expected, *got);
        }
    }
    for (name, _) in &args.pinned {
        if !produced.iter().any(|(n, _)| n == name) {
            out.errors
                .push(format!("pinned digest {name} was not produced"));
        }
    }
    out.set("peak_rss_mib", report::peak_rss_mib());
    out.print(&args.workload, args.seed, args.traced);
    std::process::exit(if out.correct() { 0 } else { 1 });
}

/// Output digests a workload produced, by name (compared against
/// `--pinned`).
pub type Produced = Vec<(String, u64)>;
