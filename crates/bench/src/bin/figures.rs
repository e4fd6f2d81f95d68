//! Regenerate every table and figure of the DeNova paper.
//!
//! ```text
//! cargo run --release -p denova-bench --bin figures             # everything, laptop scale
//! cargo run --release -p denova-bench --bin figures -- fig8     # one experiment
//! cargo run --release -p denova-bench --bin figures -- --smoke  # CI-fast
//! cargo run --release -p denova-bench --bin figures -- --full   # paper-sized workloads
//! ```
//!
//! Experiments: `table1 fig2 model table4 fig8 fig9 fig10 fig11 fig12 space
//! endurance recovery crash ablation`, one row each in the `EXPERIMENTS`
//! table. Pass `--json <path>` to also dump every result as
//! machine-readable JSON (for plotting or diffing runs).

use denova_bench::*;
use denova_telemetry::json::Value;

/// One experiment: runs at `Scale`, records its results under its JSON
/// key(s), and returns the rendered report section.
type Experiment = fn(&Scale, &mut Value) -> String;

/// Every experiment, in the order a full run executes them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", |_, json| {
        let rows = table1::run();
        json.insert("table1", &rows);
        table1::render(&rows)
    }),
    ("fig2", |_, json| {
        let sizes = [4096, 16384, 65536, 262144, 1048576];
        let rows = model::fig2(&sizes, 20);
        json.insert("fig2", &rows);
        model::render_fig2(&rows)
    }),
    ("model", |_, json| {
        let terms = model::measure_terms(200);
        json.insert("model", &terms);
        model::render_model(&terms)
    }),
    ("table4", |scale, json| {
        let rows = table4::run(
            (scale.small_files / 4).max(50),
            (scale.large_files / 2).max(10),
        );
        json.insert("table4", &rows);
        table4::render(&rows)
    }),
    ("fig8", |scale, json| {
        let res = fig8::run(scale);
        json.insert("fig8", &res);
        fig8::render(&res)
    }),
    ("fig9", |scale, json| {
        let res = fig9::run(scale);
        json.insert("fig9", &res);
        fig9::render(&res, scale)
    }),
    ("fig10", |scale, json| {
        let res = fig10::run(scale);
        json.insert("fig10", &res);
        fig10::render(&res)
    }),
    ("fig11", |scale, json| {
        let res = fig11::run(scale);
        json.insert("fig11", &res);
        fig11::render(&res)
    }),
    ("fig12", |scale, json| {
        let res = fig12::run(scale);
        json.insert("fig12", &res);
        fig12::render(&res)
    }),
    ("space", |scale, json| {
        let geo = space::geometry();
        let sav = space::savings((scale.small_files / 4).max(100));
        json.insert("fact_geometry", &geo);
        json.insert("savings", &sav);
        space::render(&geo, &sav)
    }),
    ("endurance", |scale, json| {
        let rows = endurance::run((scale.small_files / 2).max(200), 0.5);
        json.insert("endurance", &rows);
        endurance::render(&rows)
    }),
    ("recovery", |scale, json| {
        let counts = [
            scale.small_files / 8,
            scale.small_files / 2,
            scale.small_files,
        ];
        let rows = recovery_time::run(&counts);
        json.insert("recovery_time", &rows);
        recovery_time::render(&rows)
    }),
    ("crash", |_, json| {
        let rows = crashes::run();
        json.insert("crash_matrix", &rows);
        crashes::render(&rows)
    }),
    ("ablation", |_, json| {
        let r = ablation::reorder(12, 200);
        let d = ablation::delete_ptr(200);
        let e = ablation::entry_size(1000);
        json.insert("ablation_reorder", &r);
        json.insert("ablation_delete_ptr", &d);
        json.insert("ablation_entry_size", &e);
        ablation::render(&r, &d, &e)
    }),
];

fn main() {
    std::panic::set_hook(Box::new(|info| {
        // Simulated crashes (crash experiment) unwind with panics; only
        // print real ones.
        if info
            .payload()
            .downcast_ref::<denova_pmem::SimulatedCrash>()
            .is_none()
        {
            eprintln!("panic: {info}");
        }
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default_scale();
    let mut wanted: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => scale = Scale::smoke(),
            "--full" => scale = Scale::paper_scale(),
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json needs a path").clone());
            }
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }
    for w in &wanted {
        if !EXPERIMENTS.iter().any(|(name, _)| name == w) {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("unknown experiment '{w}'; known: {known:?}");
            std::process::exit(2);
        }
    }

    println!(
        "# DeNova paper reproduction — {} scale ({} small files, {} large files)",
        if scale.small_files >= 1_000_000 {
            "paper"
        } else if scale.small_files <= 300 {
            "smoke"
        } else {
            "default"
        },
        scale.small_files,
        scale.large_files
    );
    println!(
        "# host: {} CPUs",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let mut json = Value::object();
    for (name, experiment) in EXPERIMENTS {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            println!("{}", experiment(&scale, &mut json));
        }
    }
    if let Some(path) = json_path {
        std::fs::write(&path, denova_telemetry::json::to_string_pretty(&json))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("# JSON results written to {path}");
    }
}
