//! Integration tests asserting the *shape* of every reproduced
//! experiment: who wins, where the peaks fall, which phases dominate —
//! the qualitative claims of the paper's evaluation section, checked
//! programmatically at quick scale. Each driver runs once here; the
//! platform crate's own tests do not run them again.

use e3::envs::EnvId;
use e3::platform::experiments::{
    fig10, fig11, fig1b, fig3, fig4, fig6, fig7, fig9, table4, table5, Scale,
};
use e3::platform::PowerModel;

#[test]
fn fig1b_evaluate_dominates_software_neat() {
    let result = fig1b::run_on(&[EnvId::CartPole, EnvId::MountainCar], Scale::Quick, 1);
    assert!(result.mean_evaluate_fraction() > 0.85, "paper: ~97%");
    assert!(result.mean_evolve_fraction() < 0.1, "paper: ~3%");
}

#[test]
fn fig3_training_dominates_rl() {
    let result = fig3::run(Scale::Quick, 2);
    assert_eq!(result.rows.len(), 4);
    assert!(result.mean_training_fraction() > 0.4, "paper: ~60%");
    for row in &result.rows {
        assert!((row.forward_fraction + row.training_fraction - 1.0).abs() < 1e-9);
    }
}

#[test]
fn fig4_networks_are_irregular() {
    let result = fig4::run_on(&[EnvId::CartPole], Scale::Quick, 3);
    assert!(
        result.degree_histogram.buckets().count() > 1,
        "variable in-degree"
    );
    assert!(result.layer_histogram.buckets().count() >= 1);
    assert!(!result.density.is_empty());
    for d in &result.density {
        assert!(!d.trace.is_empty());
        assert!(d.trace.iter().all(|&x| x > 0.0), "density stays positive");
    }
}

#[test]
fn fig6_pe_utilization_peaks_at_output_width() {
    let result = fig6::run();
    for panel in &result.panels {
        let k = panel.num_outputs;
        assert!(
            panel.has_local_peak_at(k) || panel.has_local_peak_at(k.div_ceil(2)),
            "panel k={k} must peak at k or ⌈k/2⌉"
        );
        let (first, last) = (&panel.points[0], panel.points.last().unwrap());
        assert!(
            last.mean_cycles < first.mean_cycles,
            "more PEs must reduce runtime"
        );
        assert!(
            last.utilization < first.utilization,
            "more PEs must idle more"
        );
        for p in &panel.points {
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
        }
    }
}

#[test]
fn fig7_pu_utilization_peaks_at_population_divisors() {
    let result = fig7::run();
    for panel in &result.panels {
        let p = panel.num_individuals;
        let at_div = panel.utilization_at(p / 2).unwrap();
        let below = panel.utilization_at(p / 2 - 1).unwrap();
        assert!(
            at_div > below,
            "divisor peak at p/2 (paper's 100-vs-99 example)"
        );
        assert!(at_div > 0.95, "divisors are near-fully utilized");
        for d in [p, p / 4] {
            if let Some(u) = panel.utilization_at(d) {
                assert!(u > 0.9, "p={p}: divisor {d} utilization {u}");
            }
        }
        let cycles_at = |num_pu| {
            let point = panel.points.iter().find(|pt| pt.num_pu == num_pu);
            point.expect("swept").total_cycles
        };
        assert!(cycles_at(p) < cycles_at(1) / 50, "huge parallel win");
    }
}

#[test]
fn fig9a_bigger_networks_hide_control_overhead() {
    let result = fig9::run_fig9a();
    let first = result.points.first().unwrap();
    let last = result.points.last().unwrap();
    assert!(last.pe_active_fraction > first.pe_active_fraction);
    for p in &result.points {
        let sum = p.setup_fraction + p.pe_active_fraction + p.control_fraction;
        assert!((sum - 1.0).abs() < 1e-9, "fractions partition the total");
    }
}

#[test]
fn fig9b_suite_speedups_have_the_paper_shape() {
    let result = fig9::run_fig9b_on(&[EnvId::CartPole, EnvId::Pendulum], Scale::Quick, 7);
    for row in &result.rows {
        assert!(row.inax_speedup() > 2.0, "{}: INAX wins", row.env);
        assert!(row.gpu_slowdown() > 1.0, "{}: GPU loses", row.env);
        // Fig. 9(d): the INAX profile is balanced — evaluate no longer
        // dominates.
        let (cpu, inax) = (&row.profiles[0], &row.profiles[2]);
        assert!(inax.evaluate_fraction() < cpu.evaluate_fraction());
    }
    assert!(
        result.mean_inax_speedup() > 3.0,
        "paper headline: ~30x at full scale"
    );
}

#[test]
fn fig10_energy_and_resources() {
    let fig9b = fig9::run_fig9b_on(&[EnvId::CartPole], Scale::Quick, 7);
    let energy = fig10::run_fig10a(&fig9b, &PowerModel::default());
    assert!(
        energy.mean_inax_reduction() > 0.8,
        "paper: 97% energy reduction"
    );
    assert!(energy.rows[0].gpu_ratio() > 10.0, "paper: 71x GPU energy");
    let resources = fig10::run_fig10b();
    assert_eq!(resources.rows.len(), 2);
    assert!(
        resources.rows.iter().all(|r| r.utilization.0 < 1.0),
        "both configs fit"
    );
    let (a, b) = (&resources.rows[0].resources, &resources.rows[1].resources);
    assert!(b.lut > a.lut && b.dsp > a.dsp, "E3_b uses more resources");
}

#[test]
fn fig11_inax_beats_systolic_array_everywhere() {
    let result = fig11::run();
    for point in &result.points {
        assert!(point.speedup() > 1.0, "{} PEs", point.num_pe);
    }
    let max = result
        .points
        .iter()
        .map(|p| p.speedup())
        .fold(0.0f64, f64::max);
    assert!(max >= 3.0, "paper range: 3x–12.6x, got max {max}");
    let best_vs_best = result.best_vs_best_speedup();
    assert!(
        best_vs_best > 1.5,
        "best-vs-best {best_vs_best} (paper ~3x)"
    );
    // §VI-F: PEs beyond the output width only idle.
    let inax_at = |pe| {
        result
            .points
            .iter()
            .find(|p| p.num_pe == pe)
            .unwrap()
            .inax_cycles
    };
    assert!(inax_at(64) > 0.85 * inax_at(16), "64 PEs ≈ 16 PEs");
}

#[test]
fn table4_overheads_are_ordered() {
    let result = table4::run_on(&[EnvId::CartPole], Scale::Quick, 9);
    assert!(result.rl.ops_backward > 0);
    assert_eq!(result.ea.ops_backward, 0);
    assert_eq!(result.neat.ops_backward, 0);
    assert!(result.rl.ops_forward > 50 * result.neat.ops_forward);
    assert!(result.rl.local_memory_bytes > 100 * result.neat.local_memory_bytes);
    assert!(result.rl.local_memory_bytes > result.ea.local_memory_bytes);
    assert!(result.ea.local_memory_bytes > 20 * result.neat.local_memory_bytes);
}

#[test]
fn table5_neat_networks_are_tiny() {
    let result = table5::run_on(&[EnvId::CartPole], Scale::Quick, 9);
    let row = &result.rows[0];
    assert!(row.neat_avg_connections < row.small.connections as f64 / 20.0);
    assert!(row.large.connections > 200 * row.small.connections / 10);
    assert!(
        row.neat_avg_nodes < 60.0,
        "NEAT stays tiny: {}",
        row.neat_avg_nodes
    );
}
