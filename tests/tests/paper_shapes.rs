//! Paper-shape assertions that go beyond single cells: the orderings
//! and qualitative effects the reproduction claims (EXPERIMENTS.md),
//! checked at tiny scale, and every architecture's layer shapes and
//! paper-scale costs, pinned byte-exact in
//! `tests/goldens/arch_shapes.json`.

use dlbench_core::extensions;
use dlbench_data::{DatasetKind, SynthCifar10, SynthMnist};
use dlbench_frameworks::trainer::TEST_BATCH;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_integration_tests::TEST_SEED;
use dlbench_json::JsonValue;
use dlbench_nn::{LayerCost, Network};
use dlbench_simtime::devices;
use dlbench_tensor::{Conv2dGeometry, SeededRng};

#[test]
fn cifar_simulated_training_time_ordering() {
    // Paper Table VIIa (GPU): TF 12477 >> Torch 722 > Caffe 164.
    use dlbench_data::DatasetKind::Cifar10;
    let mut times = Vec::new();
    for fw in FrameworkKind::ALL {
        let out = trainer::run_training(
            fw,
            DefaultSetting::new(fw, Cifar10),
            Cifar10,
            Scale::Tiny,
            TEST_SEED,
        );
        times.push(out.simulated_times(&devices::gtx_1080_ti()).train_seconds);
    }
    let (tf, caffe, torch) = (times[0], times[1], times[2]);
    assert!(tf > 10.0 * torch, "TF's 1M-iteration budget dominates: {tf} vs {torch}");
    assert!(torch > caffe, "Torch (100k eager iters) > Caffe (5k): {torch} vs {caffe}");
}

#[test]
fn caffe_mnist_setting_is_cheapest_for_every_host() {
    // Paper Figure 6a: all three frameworks train MNIST fastest under
    // Caffe's MNIST setting (fewest epochs, smallest net).
    use dlbench_data::DatasetKind::Mnist;
    for host in FrameworkKind::ALL {
        let mut costs = Vec::new();
        for owner in FrameworkKind::ALL {
            let out = trainer::run_training(
                host,
                DefaultSetting::new(owner, Mnist),
                Mnist,
                Scale::Tiny,
                TEST_SEED,
            );
            costs.push((owner, out.simulated_times(&devices::gtx_1080_ti()).train_seconds));
        }
        let caffe_cost = costs.iter().find(|(o, _)| *o == FrameworkKind::Caffe).unwrap().1;
        for &(owner, cost) in &costs {
            assert!(
                caffe_cost <= cost + 1e-9,
                "{host}: Caffe setting ({caffe_cost}s) should be cheapest, {owner} gives {cost}s"
            );
        }
    }
}

#[test]
fn dataset_entropy_ordering_is_stable_across_seeds_and_sizes() {
    // The paper's §III.B data analysis: CIFAR-like data has strictly
    // higher entropy and lower sparsity than MNIST-like data.
    for seed in [1u64, 77, 1234] {
        for size in [12usize, 20, 28] {
            let mnist = SynthMnist::generate(128, size, seed).stats();
            let cifar = SynthCifar10::generate(128, size, seed).stats();
            assert!(cifar.pixel_entropy > mnist.pixel_entropy);
            assert!(cifar.sparsity < mnist.sparsity);
        }
    }
}

#[test]
fn regularizer_ablation_produces_three_comparable_arms() {
    let report = extensions::regularizer_robustness(Scale::Tiny, TEST_SEED);
    assert_eq!(report.facts.len(), 3);
    // Both attack series cover the three variants.
    for series in &report.series {
        assert_eq!(series.points.len(), 3, "{}", series.name);
        for &(_, rate) in &series.points {
            assert!((0.0..=1.0).contains(&rate));
        }
    }
}

#[test]
fn diverged_cell_reports_flat_loss_curve() {
    // Figure 5's plateau: after divergence the recorded curve stays at
    // the ceiling for the remainder of the schedule.
    use dlbench_data::DatasetKind::Cifar10;
    let out = trainer::run_training(
        FrameworkKind::Caffe,
        DefaultSetting::new(FrameworkKind::Caffe, dlbench_data::DatasetKind::Mnist),
        Cifar10,
        Scale::Tiny,
        TEST_SEED,
    );
    assert!(!out.converged);
    let plateau: Vec<f32> =
        out.loss_curve.iter().skip(out.loss_curve.len() / 2).map(|&(_, l)| l).collect();
    assert!(!plateau.is_empty());
    assert!(
        plateau.iter().all(|&l| (l - trainer::DIVERGED_LOSS).abs() < 1e-3),
        "tail should sit at the ceiling: {plateau:?}"
    );
}

/// One cost as the golden records it.
fn cost_json(batch: usize, c: LayerCost) -> JsonValue {
    let field = |v: u64| JsonValue::from(v as usize);
    JsonValue::Object(vec![
        ("batch".into(), batch.into()),
        ("fwd_flops".into(), field(c.fwd_flops)),
        ("bwd_flops".into(), field(c.bwd_flops)),
        ("params".into(), field(c.params)),
        ("activations".into(), field(c.activations)),
        ("fwd_kernels".into(), field(u64::from(c.fwd_kernels))),
        ("bwd_kernels".into(), field(u64::from(c.bwd_kernels))),
    ])
}

/// One line per convolution: its input, window and output channels.
fn conv_lines(geos: &[(Conv2dGeometry, usize)]) -> JsonValue {
    let line = |(g, out): &(Conv2dGeometry, usize)| {
        let (c, h, w, kh, kw) = (g.in_channels, g.in_h, g.in_w, g.kernel_h, g.kernel_w);
        let (s, p) = (g.stride, g.pad);
        JsonValue::from(format!("in {c}x{h}x{w}, kernel {kh}x{kw}, stride {s}, pad {p} -> {out}"))
    };
    JsonValue::Array(geos.iter().map(line).collect())
}

/// One line per layer of `net`: its summary and its output shape for a
/// single `input` sample.
fn layer_lines(net: &Network, input: (usize, usize, usize)) -> JsonValue {
    let mut shape = vec![1, input.0, input.1, input.2];
    let mut lines = Vec::new();
    for layer in net.layers() {
        shape = layer.output_shape(&shape);
        lines.push(JsonValue::from(format!("{} {} -> {shape:?}", layer.name(), layer.summary())));
    }
    JsonValue::Array(lines)
}

/// The shapes and paper costs of every architecture a cell can train
/// (each host over each owner's setting for each dataset), as
/// `tests/goldens/arch_shapes.json` pins them.
fn arch_shapes_doc() -> JsonValue {
    let mut cells = Vec::new();
    for host in FrameworkKind::ALL {
        for owner in FrameworkKind::ALL {
            for tuned_for in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Imdb] {
                let setting = DefaultSetting::new(owner, tuned_for);
                let arch = trainer::effective_arch(host, &setting);
                let native = trainer::input_dims(tuned_for, tuned_for.native_size());
                let (fc_in, fc_out) = arch.first_fc(native);
                let batch = setting.training().batch_size;
                let paper = arch.paper_network(native);
                let test = paper.cost(&[TEST_BATCH, native.0, native.1, native.2]).forward_only();
                let mut cell: Vec<(String, JsonValue)> = vec![
                    ("host".into(), host.abbrev().into()),
                    ("owner".into(), owner.abbrev().into()),
                    ("tuned_for".into(), tuned_for.name().into()),
                    ("arch".into(), arch.name.clone().into()),
                    ("native_input".into(), format!("{native:?}").into()),
                    ("fc".into(), JsonValue::Array(vec![fc_in.into(), fc_out.into()])),
                    ("convs".into(), conv_lines(&arch.conv_geometries(native))),
                ];
                if !tuned_for.is_text() {
                    let small = (native.0, 12, 12);
                    cell.push(("convs_12x12".into(), conv_lines(&arch.conv_geometries(small))));
                }
                cell.push(("train_cost".into(), cost_json(batch, arch.paper_cost(native, batch))));
                cell.push(("test_cost".into(), cost_json(TEST_BATCH, test)));
                let describe = arch.describe(native).into_iter().map(JsonValue::from).collect();
                cell.push(("describe".into(), JsonValue::Array(describe)));
                for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
                    let dims = trainer::input_dims(tuned_for, scale.image_size(tuned_for));
                    let mult = scale.width_mult();
                    let net = arch.build(dims, mult, host.initializer(), &mut SeededRng::new(0));
                    let key = format!("layers_{scale:?}").to_ascii_lowercase();
                    cell.push((key, layer_lines(&net, dims)));
                }
                cells.push(JsonValue::Object(cell));
            }
        }
    }
    JsonValue::Object(vec![("cells".into(), JsonValue::Array(cells))])
}

#[test]
fn arch_shapes_and_paper_costs_match_golden() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/arch_shapes.json");
    let golden = std::fs::read_to_string(golden_path).expect("golden arch shapes readable");
    assert_eq!(
        arch_shapes_doc().pretty() + "\n",
        golden,
        "architecture shapes or costs drifted from tests/goldens/arch_shapes.json"
    );
}
