//! Criterion benches — one per paper figure/table.
//!
//! Each bench regenerates the corresponding experiment at a reduced size,
//! so `cargo bench` both times the harness and re-derives every result.
//! The full-size numbers are produced by the `repro` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use vardelay_bench::{ablation, eyes, fine_delay, injection, skew};

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_fig7(c: &mut Criterion) {
    configure(c).bench_function("fig07_fine_delay_vs_vctrl", |b| {
        b.iter(|| fine_delay::fig7_delay_vs_vctrl(7))
    });
}

fn bench_fig9(c: &mut Criterion) {
    c.bench_function("fig09_coarse_taps", |b| {
        b.iter(fine_delay::fig9_coarse_taps)
    });
}

fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12_eye_4g8", |b| b.iter(|| eyes::fig12_eye_4g8(1000)));
}

fn bench_fig13(c: &mut Criterion) {
    c.bench_function("fig13_eye_6g4", |b| b.iter(|| eyes::fig13_eye_6g4(1000)));
}

fn bench_fig14(c: &mut Criterion) {
    c.bench_function("fig14_rz_6g4", |b| b.iter(|| eyes::fig14_rz_6g4(1000)));
}

fn bench_fig15(c: &mut Criterion) {
    c.bench_function("fig15_range_vs_freq", |b| {
        b.iter(|| fine_delay::fig15_range_vs_frequency(&[0.5, 3.2, 6.4]))
    });
}

fn bench_fig16(c: &mut Criterion) {
    c.bench_function("fig16_injection", |b| {
        b.iter(|| injection::fig16_injection(1000))
    });
}

fn bench_fig17(c: &mut Criterion) {
    c.bench_function("fig17_injection_sweep", |b| {
        b.iter(|| injection::fig17_injection_sweep(600, 4))
    });
}

fn bench_fig2(c: &mut Criterion) {
    c.bench_function("fig02_deskew", |b| b.iter(|| skew::fig2_deskew(4)));
}

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig01_eye_alignment", |b| b.iter(skew::fig1_eye_alignment));
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_requirements", |b| {
        b.iter(fine_delay::table1_requirements)
    });
}

fn bench_ablation(c: &mut Criterion) {
    c.bench_function("ablation_stage_count", |b| {
        b.iter(|| ablation::stage_count_ablation(3, 400))
    });
}

fn bench_engine_throughput(c: &mut Criterion) {
    use vardelay_analog::EdgeTransform;
    use vardelay_core::{FineDelayLine, ModelConfig};
    use vardelay_siggen::{BitPattern, EdgeStream};
    use vardelay_units::BitRate;

    // Waveform engine: one fine-line pass over a 24-bit clock.
    let cfg = ModelConfig::paper_prototype().quiet();
    c.bench_function("engine_waveform_fine_pass", |b| {
        let line = FineDelayLine::new(&cfg, 1);
        b.iter(|| line.measure_delay(vardelay_units::Time::from_ps(320.0)))
    });

    // Edge engine: characterized model over 10k bits.
    let line = FineDelayLine::new(&cfg, 1);
    let (vctrls, intervals) = line.default_grids();
    let model = line.edge_model(&vctrls, &intervals, 2);
    let stream = EdgeStream::nrz(&BitPattern::prbs7(1, 10_000), BitRate::from_gbps(6.4));
    c.bench_function("engine_edge_10k_bits", |b| {
        b.iter_batched(
            || model.clone(),
            |mut m| m.transform(&stream),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_extensions(c: &mut Criterion) {
    use vardelay_bench::extensions;
    c.bench_function("x1_multichannel", |b| b.iter(extensions::x1_multichannel));
    c.bench_function("x3_drift", |b| b.iter(extensions::x3_drift));
    c.bench_function("x4_coded_traffic", |b| {
        b.iter(|| extensions::x4_coded_traffic(600))
    });
}

fn bench_runner(c: &mut Criterion) {
    use vardelay_core::{FineDelayLine, ModelConfig};
    use vardelay_runner::Runner;

    // Serial-vs-parallel fan-out of the same sweep: the ratio of these
    // two is the runner's wall-clock win on this host.
    c.bench_function("runner_fig7_serial", |b| {
        b.iter(|| fine_delay::fig7_delay_vs_vctrl_with(Runner::serial(), 7))
    });
    c.bench_function("runner_fig7_parallel", |b| {
        b.iter(|| fine_delay::fig7_delay_vs_vctrl_with(Runner::global(), 7))
    });

    // A characterization answered entirely from the measurement memo.
    let cfg = ModelConfig::paper_prototype().quiet();
    let line = FineDelayLine::new(&cfg, 1);
    let (vctrls, intervals) = line.default_grids();
    let small_v = &vctrls[..3];
    let small_i = &intervals[..2];
    line.characterize(small_v, small_i).delays(); // prime the memo
    c.bench_function("characterize_cached", |b| {
        b.iter(|| line.characterize(small_v, small_i).delays())
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets =
        bench_fig7, bench_fig9, bench_fig12, bench_fig13, bench_fig14,
        bench_fig15, bench_fig16, bench_fig17, bench_fig2, bench_fig1,
        bench_table1, bench_ablation, bench_engine_throughput, bench_extensions,
        bench_runner
}
criterion_main!(figures);
