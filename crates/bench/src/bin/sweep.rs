//! `sweep` — explore the INAX (PU, PE) design space for a workload.
//!
//! ```text
//! sweep [--env NAME] [--inputs N] [--outputs N] [--hidden N]
//!       [--population N] [--steps N] [--threads N] [--csv PATH]
//!       [--telemetry FILE] [--trace FILE]
//! ```
//!
//! Prints the Pareto frontier over {total cycles, LUTs} on the ZCU104
//! and the paper's heuristic point for comparison; `--csv` dumps every
//! evaluated point. `--env` sizes the workload from one of the paper's
//! benchmark environments (observation size → inputs, policy outputs →
//! outputs) instead of raw dimensions. `--threads` shards the (PU, PE)
//! grid across worker threads (bit-identical results at any count).
//! `--telemetry` writes one `e3-telemetry` NDJSON `EvalRecord` per
//! evaluated design point, with the accelerator counters in the `hw`
//! field. `--trace` writes a Chrome trace-event JSON file of the sweep
//! phases (grid pricing, report writing) loadable in Perfetto.

use e3_envs::EnvId;
use e3_inax::synthetic::synthetic_population;
use e3_inax::InaxConfig;
use e3_platform::design_space::sweep_design_space_with;
use e3_platform::exec::AnyExecutor;
use e3_platform::telemetry::{
    Collector, EvalRecord, HwCounters, NdjsonWriter, TelemetryEvent, Tracer,
};
use e3_platform::{BackendKind, FpgaBudget};
use std::process::ExitCode;

struct Args {
    env: Option<EnvId>,
    inputs: usize,
    outputs: usize,
    hidden: usize,
    population: usize,
    steps: u64,
    threads: usize,
    csv: Option<String>,
    telemetry: Option<String>,
    trace: Option<String>,
}

/// PU counts the sweep prices, up to the workload population.
const PU_OPTIONS: [usize; 10] = [5, 10, 20, 25, 40, 50, 67, 100, 150, 200];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        env: None,
        inputs: 8,
        outputs: 4,
        hidden: 30,
        population: 200,
        steps: 100,
        threads: 1,
        csv: None,
        telemetry: None,
        trace: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut take = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--env" => {
                let env: EnvId = take("--env")?.parse().map_err(|e| format!("{e}"))?;
                args.env = Some(env);
                args.inputs = env.observation_size();
                args.outputs = env.policy_outputs();
            }
            "--inputs" => args.inputs = take("--inputs")?.parse().map_err(|e| format!("{e}"))?,
            "--outputs" => args.outputs = take("--outputs")?.parse().map_err(|e| format!("{e}"))?,
            "--hidden" => args.hidden = take("--hidden")?.parse().map_err(|e| format!("{e}"))?,
            "--population" => {
                args.population = take("--population")?.parse().map_err(|e| format!("{e}"))?
            }
            "--steps" => args.steps = take("--steps")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                args.threads = take("--threads")?.parse().map_err(|e| format!("{e}"))?;
                if args.threads == 0 {
                    return Err("--threads needs a positive integer".to_string());
                }
            }
            "--csv" => args.csv = Some(take("--csv")?),
            "--telemetry" => args.telemetry = Some(take("--telemetry")?),
            "--trace" => args.trace = Some(take("--trace")?),
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // A workload the sweep cannot price is bad input, not a panic.
    if args.inputs == 0 || args.outputs == 0 {
        return Err("--inputs and --outputs need positive integers".to_string());
    }
    if args.population < PU_OPTIONS[0] {
        return Err(format!(
            "--population needs at least {}, the smallest PU count swept",
            PU_OPTIONS[0]
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: sweep [--env NAME] [--inputs N] [--outputs N] [--hidden N] \
                 [--population N] [--steps N] [--threads N] [--csv PATH] [--telemetry FILE] \
                 [--trace FILE]"
            );
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let tracer = if args.trace.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut sweep_span = tracer.start("sweep", "platform");

    let nets = synthetic_population(
        args.population,
        args.inputs,
        args.outputs,
        args.hidden,
        0.2,
        42,
    );
    let pu_options: Vec<usize> = PU_OPTIONS
        .into_iter()
        .filter(|&p| p <= args.population)
        .collect();
    let pe_options: Vec<usize> = (1..=2 * args.outputs.max(4)).collect();
    let budget = FpgaBudget::zcu104();
    let mut exec = AnyExecutor::new(args.threads);
    let mut price_span = tracer.start("price_grid", "exec");
    price_span.arg("points", (pu_options.len() * pe_options.len()) as f64);
    price_span.arg("threads", args.threads as f64);
    let sweep = sweep_design_space_with(
        &nets,
        args.steps,
        &pu_options,
        &pe_options,
        &budget,
        &mut exec,
    );
    price_span.finish();
    sweep_span.arg("points", sweep.points.len() as f64);
    sweep_span.arg("feasible", sweep.feasible().count() as f64);

    let workload = args
        .env
        .map(|env| env.name().to_string())
        .unwrap_or_else(|| "synthetic".to_string());
    println!(
        "design space: {} points ({} feasible on ZCU104), workload {} {}x{}->{} pop {}",
        sweep.points.len(),
        sweep.feasible().count(),
        workload,
        args.inputs,
        args.hidden,
        args.outputs,
        args.population
    );
    println!("\nPareto frontier (cycles vs LUTs):");
    println!(
        "  {:>4} {:>4} {:>14} {:>8} {:>9} {:>6}",
        "PU", "PE", "cycles", "U(PU)", "LUT", "DSP"
    );
    for p in sweep.pareto_frontier() {
        println!(
            "  {:>4} {:>4} {:>14} {:>7.1}% {:>9} {:>6}",
            p.num_pu,
            p.num_pe,
            p.total_cycles,
            100.0 * p.pu_utilization,
            p.resources.lut,
            p.resources.dsp
        );
    }
    // The paper's heuristic point for reference.
    let heuristic = sweep
        .points
        .iter()
        .find(|p| p.num_pu == 50.min(args.population) && p.num_pe == args.outputs);
    if let Some(p) = heuristic {
        println!(
            "\npaper heuristic (PU=50, PE=outputs): {} cycles, U(PU) {:.1}%, LUT {} — fits: {}",
            p.total_cycles,
            100.0 * p.pu_utilization,
            p.resources.lut,
            p.fits
        );
    }
    if let Some(path) = &args.telemetry {
        let _span = tracer.start("write_telemetry", "platform");
        match write_telemetry(path, &args, &workload, &sweep.points) {
            Ok(()) => println!("wrote telemetry to {path}"),
            Err(e) => {
                eprintln!("error: could not write telemetry {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.csv {
        let _span = tracer.start("write_csv", "platform");
        match std::fs::write(path, sweep.to_csv()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    sweep_span.finish();
    if let Some(path) = &args.trace {
        match tracer.write_chrome_trace(path) {
            Ok(()) => eprintln!(
                "wrote {} spans to {path} (load in https://ui.perfetto.dev)",
                tracer.span_count()
            ),
            Err(e) => {
                eprintln!("error: could not write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Emits one `EvalRecord` per design point: the modeled offload of the
/// whole population for `steps` environment steps on that (PU, PE)
/// configuration. Fitness fields are zero — the sweep evaluates a
/// synthetic workload, so only the timing and counters are meaningful.
fn write_telemetry(
    path: &str,
    args: &Args,
    workload: &str,
    points: &[e3_platform::DesignPoint],
) -> Result<(), e3_platform::telemetry::TelemetryError> {
    let clock = InaxConfig::default();
    let mut sink = NdjsonWriter::create(path)?;
    for (index, p) in points.iter().enumerate() {
        sink.record(&TelemetryEvent::Eval(EvalRecord {
            generation: index,
            backend: BackendKind::Inax.name().to_string(),
            env: format!("{workload}_pu{}_pe{}", p.num_pu, p.num_pe),
            population: args.population,
            eval_seconds: clock.cycles_to_seconds(p.total_cycles),
            env_seconds: 0.0,
            total_steps: args.steps * args.population as u64,
            best_fitness: 0.0,
            mean_fitness: 0.0,
            hw: Some(HwCounters {
                total_cycles: p.total_cycles,
                setup_cycles: 0,
                pe_active_cycles: 0,
                evaluate_control_cycles: 0,
                dma_cycles: 0,
                pu_utilization: p.pu_utilization,
                pe_utilization: 0.0,
                steps: args.steps,
            }),
        }))?;
    }
    sink.flush()?;
    Ok(())
}
