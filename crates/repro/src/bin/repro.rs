//! Regenerates the paper's evaluation artifacts, the rows of
//! `cloudscope_repro::figures::FIGURES`: each prints its plotted series
//! as CSV plus a `SHAPE-CHECK` verdict table.
//!
//! ```sh
//! cargo run --release -p cloudscope-repro --bin repro -- fig1 fig5   # or: all
//! ```
//!
//! The trace scale is `CLOUDSCOPE_TRACE_SCALE` (`full`, `medium`,
//! `small`); `--metrics`, `--trace-dir` and `--trace-out` are
//! `MetricsOpt`'s. Exits 1 when any requested row's checks miss, 2 on
//! an unknown name or a failed analysis.

use cloudscope_repro::checks::Measurements;
use cloudscope_repro::figures::{Figure, Run, FIGURES};
use cloudscope_repro::{active_profile, MetricsOpt};

fn main() {
    let (metrics, names) = MetricsOpt::from_args();
    let selected: Option<Vec<&Figure>> = if names == ["all"] {
        Some(FIGURES.iter().collect())
    } else {
        names
            .iter()
            .map(|name| FIGURES.iter().find(|f| f.name == *name))
            .collect()
    };
    let selected = match selected {
        Some(figures) if !figures.is_empty() => figures,
        _ => {
            let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            eprintln!(
                "usage: repro <name>... | all  (names: {}; got {names:?})",
                known.join(", ")
            );
            std::process::exit(2);
        }
    };

    let profile = active_profile();
    let generated = metrics.load_trace();
    let t0 = std::time::Instant::now();
    let measured = Measurements::of(&generated, profile.oversub_pool).unwrap_or_else(|e| {
        eprintln!("error: analysis: {e}");
        std::process::exit(2);
    });
    eprintln!("# measured every figure in {:?}", t0.elapsed());
    let run = Run {
        generated: &generated,
        measured: &measured,
        profile,
    };
    let mut ok = true;
    for figure in selected {
        let mut out = String::new();
        ok &= figure.render(&run, &mut out).all_hold();
        print!("{out}");
    }
    metrics.write();
    std::process::exit(i32::from(!ok));
}
