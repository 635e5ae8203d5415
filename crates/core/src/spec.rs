//! Declarative experiment specs: a JSON file describing axes of the
//! benchmark cross-product (framework personality, default setting,
//! dataset, device, world size, serving deadline…) expands into a
//! deterministic *plan* of cells, each identified by a content hash of
//! its fully-resolved parameters. `run_plan` executes each cell on its
//! engine — the cached [`BenchmarkRunner`], the distributed driver, the
//! HTTP serving tier or the fleet simulator — persisting every finished
//! cell to an on-disk cache so an interrupted sweep resumes instead of
//! retraining.
//!
//! Grammar, interpolation rules, hashing and cache layout are
//! documented in `DESIGN.md` §11.

use crate::metrics::CellMetrics;
use crate::report::ExperimentReport;
use crate::runner::{BenchmarkRunner, TrainKey};
use dlbench_data::DatasetKind;
use dlbench_dist::{run_dist_training, DistConfig, Strategy};
use dlbench_fleet::{simulate_fleet, RoutingPolicy, SimFleetConfig};
use dlbench_frameworks::{DefaultSetting, FrameworkKind, Scale};
use dlbench_json::{self as json, JsonValue, ToJson};
use dlbench_serve::loadgen::{sample_inputs, serve_and_drive};
use dlbench_serve::{BatchConfig, LoadConfig, LoadMode, ModelDtype, ModelSpec};
use dlbench_simtime::{devices, Device};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Format tag written into every cache entry and result document, and
/// salted into every cell hash. Bump it to invalidate all caches when
/// the result schema changes incompatibly.
pub const SPEC_FORMAT: &str = "dlbench-spec-v1";

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

/// Which engine a grid's cells dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellKindTag {
    /// Single-host training cell (one bar of Figures 1–4/6–7).
    Train,
    /// Data-parallel training cell (scaling/fault experiments).
    Dist,
    /// Online-serving cell (load generator against the HTTP tier).
    Serve,
    /// Multi-replica fleet cell (simulated routing/autoscaling sweep).
    Fleet,
}

impl CellKindTag {
    /// Every kind, in spec-grammar order.
    const ALL: [CellKindTag; 4] =
        [CellKindTag::Train, CellKindTag::Dist, CellKindTag::Serve, CellKindTag::Fleet];

    /// Spec-file spelling of the kind.
    pub fn name(self) -> &'static str {
        match self {
            CellKindTag::Train => "train",
            CellKindTag::Dist => "dist",
            CellKindTag::Serve => "serve",
            CellKindTag::Fleet => "fleet",
        }
    }

    fn parse(s: &str) -> Result<CellKindTag, String> {
        match s {
            "train" => Ok(CellKindTag::Train),
            "dist" => Ok(CellKindTag::Dist),
            "serve" => Ok(CellKindTag::Serve),
            "fleet" => Ok(CellKindTag::Fleet),
            other => Err(format!("unknown grid kind `{other}` (expected train|dist|serve|fleet)")),
        }
    }
}

/// Parameter keys each kind takes: the grammar's one key rule. The
/// known keys are their union, so a typo fails at parse time. A key in
/// a grid's own `axes`/`overrides` must be one its kind takes, else the
/// spec is rejected naming the kinds that do (a `routing` axis on a
/// serve grid would otherwise expand into N identical cells). Keys in
/// `defaults` filter silently, so a shared default like `device` does
/// not pollute dist/serve cell identities.
fn keys_for(kind: CellKindTag) -> &'static [&'static str] {
    match kind {
        CellKindTag::Train => {
            &["dataset", "device", "framework", "scale", "seed", "setting_dataset", "setting_owner"]
        }
        CellKindTag::Dist => &[
            "dataset",
            "framework",
            "max_steps",
            "scale",
            "seed",
            "setting_dataset",
            "setting_owner",
            "strategy",
            "workers",
        ],
        CellKindTag::Serve => &[
            "dataset",
            "deadline_ms",
            "framework",
            "max_batch",
            "quantize",
            "rate_rps",
            "requests",
            "scale",
            "seed",
        ],
        CellKindTag::Fleet => &[
            "dataset",
            "framework",
            "max_batch",
            "quantize",
            "rate_rps",
            "replicas",
            "requests",
            "routing",
            "scale",
            "seed",
            "target_p99_ms",
        ],
    }
}

/// One grid block: a cartesian product of axes with fixed overrides.
#[derive(Debug, Clone)]
struct GridSpec {
    kind: CellKindTag,
    /// Axes sorted by name so expansion order never depends on the
    /// spec author's key order.
    axes: Vec<(String, Vec<String>)>,
    overrides: BTreeMap<String, String>,
}

/// A parsed experiment spec (name, variables, defaults, grids).
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Spec name (report/document title).
    pub name: String,
    vars: BTreeMap<String, String>,
    defaults: BTreeMap<String, String>,
    grids: Vec<GridSpec>,
}

/// Canonical string form of a scalar spec value. Integers print
/// without a fractional part so `42` and `42.0` hash identically.
fn scalar_to_string(context: &str, v: &JsonValue) -> Result<String, String> {
    match v {
        JsonValue::String(s) => Ok(s.clone()),
        JsonValue::Number(n) => Ok(fmt_num(*n)),
        JsonValue::Bool(b) => Ok(b.to_string()),
        other => Err(format!("{context}: expected a string, number or bool, got {other:?}")),
    }
}

fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Members of a JSON object as scalar strings, erroring on anything
/// non-scalar.
fn scalar_map(context: &str, v: &JsonValue) -> Result<BTreeMap<String, String>, String> {
    let JsonValue::Object(members) = v else {
        return Err(format!("{context} must be an object"));
    };
    let mut out = BTreeMap::new();
    for (k, val) in members {
        out.insert(k.clone(), scalar_to_string(&format!("{context}.{k}"), val)?);
    }
    Ok(out)
}

/// Applies the key rule of [`keys_for`] to written keys: unknown keys
/// always fail, and with a grid `kind` so do keys that kind does not
/// take.
fn check_keys(
    context: &str,
    kind: Option<CellKindTag>,
    keys: impl Iterator<Item = impl AsRef<str>>,
) -> Result<(), String> {
    for k in keys {
        let k = k.as_ref();
        let takers: Vec<&str> = CellKindTag::ALL
            .into_iter()
            .filter(|&t| keys_for(t).contains(&k))
            .map(CellKindTag::name)
            .collect();
        if takers.is_empty() {
            let known: BTreeSet<&str> =
                CellKindTag::ALL.into_iter().flat_map(keys_for).copied().collect();
            let known: Vec<&str> = known.into_iter().collect();
            return Err(format!(
                "{context}: unknown parameter `{k}` (known: {})",
                known.join(", ")
            ));
        }
        if let Some(kind) = kind.filter(|&kind| !keys_for(kind).contains(&k)) {
            return Err(format!(
                "{context}: parameter `{k}` only applies to {} grids, but this grid is kind \
                 `{}`; move it to a {} grid or drop it",
                takers.join(" and "),
                kind.name(),
                takers.join(" or "),
            ));
        }
    }
    Ok(())
}

impl ExperimentSpec {
    /// Parses a spec document. Structural problems (unknown keys,
    /// non-scalar values, empty axes, undefined variables) are all
    /// reported here, before anything trains.
    pub fn parse(text: &str) -> Result<ExperimentSpec, String> {
        let doc = json::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        let JsonValue::Object(members) = &doc else {
            return Err("spec root must be an object".into());
        };
        let mut name = None;
        let mut vars = BTreeMap::new();
        let mut defaults = BTreeMap::new();
        let mut grids = Vec::new();
        for (key, value) in members {
            match key.as_str() {
                "name" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| "spec `name` must be a string".to_string())?
                            .to_string(),
                    );
                }
                "vars" => vars = scalar_map("vars", value)?,
                "defaults" => defaults = scalar_map("defaults", value)?,
                "grids" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| "spec `grids` must be an array".to_string())?;
                    for (i, item) in items.iter().enumerate() {
                        grids.push(Self::parse_grid(i, item)?);
                    }
                }
                other => return Err(format!("unknown spec key `{other}`")),
            }
        }
        let name = name.ok_or_else(|| "spec is missing required key `name`".to_string())?;
        if grids.is_empty() {
            return Err("spec declares no grids".into());
        }
        check_keys("defaults", None, defaults.keys())?;
        let vars = resolve_vars(vars)?;
        Ok(ExperimentSpec { name, vars, defaults, grids })
    }

    fn parse_grid(index: usize, value: &JsonValue) -> Result<GridSpec, String> {
        let context = format!("grids[{index}]");
        let JsonValue::Object(members) = value else {
            return Err(format!("{context} must be an object"));
        };
        let mut kind = None;
        let mut axes: Vec<(String, Vec<String>)> = Vec::new();
        let mut overrides = BTreeMap::new();
        for (key, val) in members {
            match key.as_str() {
                "kind" => {
                    let s =
                        val.as_str().ok_or_else(|| format!("{context}.kind must be a string"))?;
                    kind = Some(CellKindTag::parse(s).map_err(|e| format!("{context}: {e}"))?);
                }
                "axes" => {
                    let JsonValue::Object(axis_members) = val else {
                        return Err(format!("{context}.axes must be an object"));
                    };
                    for (axis, values) in axis_members {
                        let items = values
                            .as_array()
                            .ok_or_else(|| format!("{context}.axes.{axis} must be an array"))?;
                        if items.is_empty() {
                            return Err(format!("{context}.axes.{axis} is empty"));
                        }
                        let mut parsed = Vec::with_capacity(items.len());
                        for item in items {
                            parsed.push(scalar_to_string(&format!("{context}.axes.{axis}"), item)?);
                        }
                        axes.push((axis.clone(), parsed));
                    }
                }
                "overrides" => overrides = scalar_map(&format!("{context}.overrides"), val)?,
                other => return Err(format!("{context}: unknown grid key `{other}`")),
            }
        }
        let kind = kind.ok_or_else(|| format!("{context} is missing required key `kind`"))?;
        if axes.is_empty() {
            return Err(format!("{context} declares no axes"));
        }
        let written =
            axes.iter().map(|(k, _)| k.as_str()).chain(overrides.keys().map(String::as_str));
        check_keys(&context, Some(kind), written)?;
        axes.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(GridSpec { kind, axes, overrides })
    }

    /// Expands every grid's cartesian product into a deterministic
    /// plan. Axes iterate sorted by name, last axis fastest, so the
    /// plan order is a pure function of the spec content.
    pub fn expand(&self) -> Result<Plan, String> {
        let mut cells = Vec::new();
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for (gi, grid) in self.grids.iter().enumerate() {
            let context = format!("grids[{gi}]");
            // Axis values may reference ${vars}.
            let mut axes: Vec<(String, Vec<String>)> = Vec::with_capacity(grid.axes.len());
            for (axis, values) in &grid.axes {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(interpolate_value(&context, v, &self.vars, &BTreeMap::new())?);
                }
                axes.push((axis.clone(), out));
            }
            let total: usize = axes.iter().map(|(_, v)| v.len()).product();
            for flat in 0..total {
                // Odometer decode: last axis varies fastest.
                let mut rem = flat;
                let mut assignment = BTreeMap::new();
                for (axis, values) in axes.iter().rev() {
                    assignment.insert(axis.clone(), values[rem % values.len()].clone());
                    rem /= values.len();
                }
                let cell = self.resolve_cell(&context, grid, &assignment)?;
                if let Some(&prev) = seen.get(&cell.hash) {
                    return Err(format!(
                        "{context}: cell `{}` (hash {}) duplicates plan cell #{prev}",
                        cell.label, cell.hash
                    ));
                }
                seen.insert(cell.hash.clone(), cells.len());
                cells.push(cell);
            }
        }
        Ok(Plan { name: self.name.clone(), cells })
    }

    /// Resolves one axis assignment into a typed, hashed plan cell.
    fn resolve_cell(
        &self,
        context: &str,
        grid: &GridSpec,
        assignment: &BTreeMap<String, String>,
    ) -> Result<PlanCell, String> {
        // defaults < axis values < overrides; then one interpolation
        // pass so overrides/defaults can reference ${axis} values.
        let mut raw: BTreeMap<String, String> = self.defaults.clone();
        for (k, v) in assignment {
            raw.insert(k.clone(), v.clone());
        }
        for (k, v) in &grid.overrides {
            raw.insert(k.clone(), v.clone());
        }
        let mut params = BTreeMap::new();
        for (k, v) in &raw {
            if keys_for(grid.kind).contains(&k.as_str()) {
                params.insert(k.clone(), interpolate_value(context, v, &self.vars, assignment)?);
            }
        }
        typed_cell(grid.kind, params).map_err(|e| format!("{context}: {e}"))
    }
}

/// Resolves `${name}` references between vars to a fixpoint (bounded,
/// so `a -> b -> a` cycles error out instead of spinning).
fn resolve_vars(mut vars: BTreeMap<String, String>) -> Result<BTreeMap<String, String>, String> {
    for _round in 0..8 {
        let snapshot = vars.clone();
        let mut changed = false;
        for (key, value) in vars.iter_mut() {
            let lookup = |name: &str| -> Option<String> {
                if name == key {
                    return None; // self-reference is always an error
                }
                snapshot.get(name).cloned()
            };
            if let Some(next) =
                json::interpolate_str(value, &lookup).map_err(|e| format!("vars.{key}: {e}"))?
            {
                if next != *value {
                    changed = true;
                }
                *value = next;
            }
        }
        if !changed {
            return Ok(vars);
        }
    }
    Err("vars contain a reference cycle".into())
}

/// Interpolates one parameter value: axis values shadow spec vars.
fn interpolate_value(
    context: &str,
    value: &str,
    vars: &BTreeMap<String, String>,
    assignment: &BTreeMap<String, String>,
) -> Result<String, String> {
    let lookup =
        |name: &str| -> Option<String> { assignment.get(name).or_else(|| vars.get(name)).cloned() };
    match json::interpolate_str(value, &lookup) {
        Ok(Some(s)) => Ok(s),
        Ok(None) => Ok(value.to_string()),
        Err(e) => Err(format!("{context}: {e} in `{value}`")),
    }
}

// ---------------------------------------------------------------------
// Typed cells
// ---------------------------------------------------------------------

/// CPU/GPU choice for a train cell, mapped onto the paper's testbed
/// devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceChoice {
    /// Intel Xeon E5-1620 (the paper's CPU).
    Cpu,
    /// NVIDIA GTX 1080 Ti (the paper's GPU).
    Gpu,
}

impl DeviceChoice {
    /// Canonical spec spelling.
    pub fn name(self) -> &'static str {
        match self {
            DeviceChoice::Cpu => "cpu",
            DeviceChoice::Gpu => "gpu",
        }
    }

    /// The simulated device model.
    pub fn device(self) -> Device {
        match self {
            DeviceChoice::Cpu => devices::xeon_e5_1620(),
            DeviceChoice::Gpu => devices::gtx_1080_ti(),
        }
    }

    fn parse(s: &str) -> Result<DeviceChoice, String> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" => Ok(DeviceChoice::Cpu),
            "gpu" => Ok(DeviceChoice::Gpu),
            other => Err(format!("unknown device `{other}` (expected cpu|gpu)")),
        }
    }
}

/// A fully-resolved single-host training cell.
#[derive(Debug, Clone)]
pub struct TrainCellSpec {
    /// Training key (host personality, setting, dataset).
    pub key: TrainKey,
    /// Timing-model device.
    pub device: DeviceChoice,
    /// Accuracy-bearing training scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

/// A fully-resolved data-parallel training cell.
#[derive(Debug, Clone)]
pub struct DistCellSpec {
    /// Host personality.
    pub host: FrameworkKind,
    /// Applied default setting.
    pub setting: DefaultSetting,
    /// Dataset.
    pub dataset: DatasetKind,
    /// Training scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// World size.
    pub workers: usize,
    /// Gradient-aggregation strategy.
    pub strategy: Strategy,
    /// Optional step cap (smoke grids).
    pub max_steps: Option<usize>,
}

/// The typed payload a plan cell dispatches on.
#[derive(Debug, Clone)]
pub enum CellPayload {
    /// Single-host training.
    Train(TrainCellSpec),
    /// Data-parallel training.
    Dist(DistCellSpec),
    /// Online serving: one model on the HTTP tier under open-loop load.
    Serve {
        /// The served model (personality, dataset, scale, seed, dtype).
        model: ModelSpec,
        /// Micro-batching cap and flush deadline.
        batch: BatchConfig,
        /// Arrival rate and request count.
        load: LoadConfig,
    },
    /// Multi-replica fleet simulation at one arrival rate (autoscaling
    /// off, so the cell hash fully determines the fleet shape).
    Fleet(SimFleetConfig),
}

fn framework_name(fw: FrameworkKind) -> &'static str {
    match fw {
        FrameworkKind::TensorFlow => "tf",
        FrameworkKind::Caffe => "caffe",
        FrameworkKind::Torch => "torch",
    }
}

fn dataset_name(ds: DatasetKind) -> &'static str {
    match ds {
        DatasetKind::Mnist => "mnist",
        DatasetKind::Cifar10 => "cifar10",
        DatasetKind::Imdb => "imdb",
    }
}

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Typed parameter accessors over a cell's resolved string params.
struct Params<'a>(&'a BTreeMap<String, String>);

impl<'a> Params<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.0.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing required parameter `{key}`"))
    }

    fn usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.get(key)
            .map(|s| s.parse::<usize>().map_err(|_| format!("`{key}` is not an integer: `{s}`")))
            .transpose()
    }

    /// `quantize` (default `fp32`), parsed by the serving crate.
    fn dtype(&self) -> Result<ModelDtype, String> {
        let raw = self.get("quantize").unwrap_or("fp32");
        ModelDtype::parse(raw)
            .ok_or_else(|| format!("unknown quantize mode `{raw}` (expected fp32|int8)"))
    }

    /// `routing` (default `least-queue`), parsed by the fleet crate.
    fn routing(&self) -> Result<RoutingPolicy, String> {
        let raw = self.get("routing").unwrap_or("least-queue");
        RoutingPolicy::parse(raw).ok_or_else(|| {
            format!("unknown routing policy `{raw}` (expected rr|least-queue|batch-aware)")
        })
    }

    fn f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(s) => {
                let v: f64 = s.parse().map_err(|_| format!("`{key}` is not a number: `{s}`"))?;
                if !v.is_finite() {
                    return Err(format!("`{key}` must be finite: `{s}`"));
                }
                Ok(Some(v))
            }
        }
    }
}

/// Validates and canonicalizes one cell's parameters, producing the
/// typed payload plus the *complete* parameter map (every default
/// materialized, every value in canonical spelling) that the content
/// hash covers.
fn typed_cell(kind: CellKindTag, params: BTreeMap<String, String>) -> Result<PlanCell, String> {
    let p = Params(&params);
    let host = FrameworkKind::parse(p.require("framework")?)?;
    let dataset = DatasetKind::parse(p.require("dataset")?)?;
    let scale = match p.get("scale") {
        None => Scale::Tiny,
        Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}`"))?,
    };
    let seed: u64 = match p.get("seed") {
        None => 42,
        Some(s) => s.parse().map_err(|_| format!("`seed` is not an integer: `{s}`"))?,
    };
    let mut canonical = BTreeMap::new();
    canonical.insert("framework".to_string(), framework_name(host).to_string());
    canonical.insert("dataset".to_string(), dataset_name(dataset).to_string());
    canonical.insert("scale".to_string(), scale_name(scale).to_string());
    canonical.insert("seed".to_string(), seed.to_string());

    let setting = |p: &Params| -> Result<DefaultSetting, String> {
        let owner = match p.get("setting_owner") {
            None => host,
            Some(s) => FrameworkKind::parse(s)?,
        };
        let tuned_for = match p.get("setting_dataset") {
            None => dataset,
            Some(s) => DatasetKind::parse(s)?,
        };
        // Text and image settings take different input shapes (token
        // sequences vs pixel grids), so transplanting across the
        // modality boundary cannot instantiate; reject it here with the
        // fix instead of panicking during model construction.
        if tuned_for.is_text() != dataset.is_text() {
            return Err(format!(
                "setting_dataset `{}` cannot be applied to dataset `{}`: text and image \
                 architectures take different input shapes; set `setting_dataset` to \
                 `{}` or change `dataset`",
                dataset_name(tuned_for),
                dataset_name(dataset),
                dataset_name(dataset),
            ));
        }
        Ok(DefaultSetting::new(owner, tuned_for))
    };

    let (payload, label) = match kind {
        CellKindTag::Train => {
            let setting = setting(&p)?;
            let device = DeviceChoice::parse(p.require("device")?)?;
            canonical.insert("device".to_string(), device.name().to_string());
            canonical
                .insert("setting_owner".to_string(), framework_name(setting.owner).to_string());
            canonical
                .insert("setting_dataset".to_string(), dataset_name(setting.tuned_for).to_string());
            let label = format!("{} ({}) on {}", host.name(), setting.label(), dataset.name());
            let cell =
                TrainCellSpec { key: TrainKey { host, setting, dataset }, device, scale, seed };
            (CellPayload::Train(cell), format!("{label} [{}]", device.name()))
        }
        CellKindTag::Dist => {
            if dataset.is_text() {
                return Err(format!(
                    "dataset `{}` only applies to train, serve and fleet grids (the \
                     data-parallel driver shards image batches only), but this grid is \
                     kind `dist`; move the cell to a train grid or pick an image dataset",
                    dataset_name(dataset)
                ));
            }
            let setting = setting(&p)?;
            let workers = p
                .usize("workers")?
                .ok_or_else(|| "missing required parameter `workers`".to_string())?;
            if workers == 0 {
                return Err("`workers` must be at least 1".into());
            }
            let strategy = Strategy::parse(p.require("strategy")?)?;
            let max_steps = p.usize("max_steps")?;
            canonical
                .insert("setting_owner".to_string(), framework_name(setting.owner).to_string());
            canonical
                .insert("setting_dataset".to_string(), dataset_name(setting.tuned_for).to_string());
            canonical.insert("workers".to_string(), workers.to_string());
            canonical.insert("strategy".to_string(), strategy.name().to_string());
            if let Some(steps) = max_steps {
                canonical.insert("max_steps".to_string(), steps.to_string());
            }
            let label =
                format!("{} x{} {} on {}", host.name(), workers, strategy.name(), dataset.name());
            let cell =
                DistCellSpec { host, setting, dataset, scale, seed, workers, strategy, max_steps };
            (CellPayload::Dist(cell), label)
        }
        CellKindTag::Serve => {
            let deadline_ms = p
                .f64("deadline_ms")?
                .ok_or_else(|| "missing required parameter `deadline_ms`".to_string())?;
            if deadline_ms <= 0.0 {
                return Err("`deadline_ms` must be positive".into());
            }
            let max_batch = p.usize("max_batch")?.unwrap_or(8).max(1);
            let requests = p.usize("requests")?.unwrap_or(64).max(1);
            let rate_rps = p.f64("rate_rps")?.unwrap_or(200.0);
            if rate_rps <= 0.0 {
                return Err("`rate_rps` must be positive".into());
            }
            let dtype = p.dtype()?;
            canonical.insert("deadline_ms".to_string(), fmt_num(deadline_ms));
            canonical.insert("max_batch".to_string(), max_batch.to_string());
            canonical.insert("requests".to_string(), requests.to_string());
            canonical.insert("rate_rps".to_string(), fmt_num(rate_rps));
            canonical.insert("quantize".to_string(), dtype.name().to_string());
            let label = format!(
                "{} on {} (deadline {}ms, {})",
                host.name(),
                dataset.name(),
                fmt_num(deadline_ms),
                dtype.name()
            );
            let model =
                ModelSpec::own_default("default", host, dataset, scale, seed).with_dtype(dtype);
            let batch = BatchConfig {
                max_batch,
                max_wait: Duration::from_millis(deadline_ms.round() as u64),
                ..BatchConfig::default()
            };
            let load = LoadConfig { mode: LoadMode::Open { rate_rps }, requests };
            (CellPayload::Serve { model, batch, load }, label)
        }
        CellKindTag::Fleet => {
            let replicas = p.usize("replicas")?.unwrap_or(2).max(1);
            let policy = p.routing()?;
            let target_p99_ms = p.f64("target_p99_ms")?.unwrap_or(50.0);
            if target_p99_ms <= 0.0 {
                return Err("`target_p99_ms` must be positive".into());
            }
            let max_batch = p.usize("max_batch")?.unwrap_or(8).max(1);
            let requests = p.usize("requests")?.unwrap_or(256).max(1);
            let rate_rps = p.f64("rate_rps")?.unwrap_or(1000.0);
            if rate_rps <= 0.0 {
                return Err("`rate_rps` must be positive".into());
            }
            let dtype = p.dtype()?;
            canonical.insert("replicas".to_string(), replicas.to_string());
            canonical.insert("routing".to_string(), policy.name().to_string());
            canonical.insert("target_p99_ms".to_string(), fmt_num(target_p99_ms));
            canonical.insert("max_batch".to_string(), max_batch.to_string());
            canonical.insert("requests".to_string(), requests.to_string());
            canonical.insert("rate_rps".to_string(), fmt_num(rate_rps));
            canonical.insert("quantize".to_string(), dtype.name().to_string());
            let label = format!(
                "{} on {} x{} {} @ {}rps ({})",
                host.name(),
                dataset.name(),
                replicas,
                policy.name(),
                fmt_num(rate_rps),
                dtype.name()
            );
            let cfg = SimFleetConfig {
                host,
                dataset,
                scale,
                seed,
                policy,
                replicas,
                max_batch,
                target_p99_ms,
                dtype,
                ..SimFleetConfig::new(rate_rps, requests)
            };
            (CellPayload::Fleet(cfg), label)
        }
    };
    let hash = cell_hash(kind, &canonical);
    Ok(PlanCell { kind, label, params: canonical, hash, payload })
}

// ---------------------------------------------------------------------
// Plans and hashing
// ---------------------------------------------------------------------

/// One resolved cell of a plan.
#[derive(Debug, Clone)]
pub struct PlanCell {
    /// Dispatch kind.
    pub kind: CellKindTag,
    /// Human-readable cell label.
    pub label: String,
    /// Complete canonical parameters (what the hash covers).
    pub params: BTreeMap<String, String>,
    /// Content hash identifying the cell in the on-disk cache.
    pub hash: String,
    /// Typed execution payload.
    pub payload: CellPayload,
}

/// A deterministic, fully-expanded execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Spec name.
    pub name: String,
    /// Cells in execution order.
    pub cells: Vec<PlanCell>,
}

impl Plan {
    /// The plan as JSON (`--dry-run` output and the golden-plan test).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("format".into(), SPEC_FORMAT.into()),
            ("spec".into(), self.name.as_str().into()),
            (
                "cells".into(),
                JsonValue::Array(
                    self.cells
                        .iter()
                        .map(|c| {
                            JsonValue::Object(vec![
                                ("kind".into(), c.kind.name().into()),
                                ("label".into(), c.label.as_str().into()),
                                ("hash".into(), c.hash.as_str().into()),
                                ("params".into(), params_json(&c.params)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn params_json(params: &BTreeMap<String, String>) -> JsonValue {
    JsonValue::Object(
        params.iter().map(|(k, v)| (k.clone(), JsonValue::String(v.clone()))).collect(),
    )
}

/// 64-bit FNV-1a over the canonical parameter rendering, salted with
/// the format tag so schema bumps invalidate old caches.
fn cell_hash(kind: CellKindTag, params: &BTreeMap<String, String>) -> String {
    let mut text = format!("{SPEC_FORMAT}\nkind={}\n", kind.name());
    for (k, v) in params {
        text.push_str(k);
        text.push('=');
        text.push_str(v);
        text.push('\n');
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------
// Cell cache
// ---------------------------------------------------------------------

fn cache_path(dir: &Path, cell: &PlanCell) -> PathBuf {
    dir.join(format!("{}.json", cell.hash))
}

/// Loads a cached result for a cell. *Any* problem — missing file,
/// truncated write, unparseable JSON, wrong format tag, hash mismatch
/// — is a cache miss (the cell simply re-runs), never an error.
fn load_cached(dir: &Path, cell: &PlanCell) -> Option<JsonValue> {
    let text = std::fs::read_to_string(cache_path(dir, cell)).ok()?;
    let doc = json::parse(&text).ok()?;
    if doc.get("format")?.as_str()? != SPEC_FORMAT {
        return None;
    }
    if doc.get("hash")?.as_str()? != cell.hash {
        return None;
    }
    doc.get("result").cloned()
}

/// Persists a finished cell crash-safely: the entry is written to a
/// temp file in the same directory and renamed into place, so a kill
/// mid-write leaves either no entry or a complete one — and a leftover
/// temp file is ignored by [`load_cached`].
fn store_cell(dir: &Path, cell: &PlanCell, result: &JsonValue) -> Result<(), String> {
    let doc = JsonValue::Object(vec![
        ("format".into(), SPEC_FORMAT.into()),
        ("hash".into(), cell.hash.as_str().into()),
        ("kind".into(), cell.kind.name().into()),
        ("label".into(), cell.label.as_str().into()),
        ("params".into(), params_json(&cell.params)),
        ("result".into(), result.clone()),
    ]);
    let tmp = dir.join(format!(".{}.tmp", cell.hash));
    let final_path = cache_path(dir, cell);
    std::fs::write(&tmp, doc.pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &final_path)
        .map_err(|e| format!("renaming into {}: {e}", final_path.display()))
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Options for [`run_plan`].
pub struct RunOptions {
    /// Directory holding `<hash>.json` cell entries.
    pub cache_dir: PathBuf,
    /// Ignore existing cache entries (cells still persist afterwards).
    pub force: bool,
}

/// One executed (or cache-restored) cell.
pub struct CellRun {
    /// Dispatch kind.
    pub kind: CellKindTag,
    /// Cell label.
    pub label: String,
    /// Content hash.
    pub hash: String,
    /// Canonical parameters.
    pub params: BTreeMap<String, String>,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// The cell's result document.
    pub result: JsonValue,
}

/// The outcome of running a plan.
pub struct SpecRun {
    /// Spec name.
    pub name: String,
    /// Per-cell outcomes, in plan order.
    pub cells: Vec<CellRun>,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells restored from the cache.
    pub cache_hits: usize,
}

/// Runs a plan against the cell cache.
///
/// Training cells sharing a `(scale, seed)` run through one
/// [`BenchmarkRunner`] so CPU/GPU rows of the same configuration train
/// once; uncached trainings prefetch in chunks of the configured
/// thread count, and every chunk's cells persist before the next chunk
/// starts, so a killed sweep loses at most one chunk of work.
pub fn run_plan(plan: &Plan, opts: &RunOptions) -> Result<SpecRun, String> {
    std::fs::create_dir_all(&opts.cache_dir)
        .map_err(|e| format!("creating cache dir {}: {e}", opts.cache_dir.display()))?;
    let mut results: Vec<Option<(JsonValue, bool)>> = Vec::with_capacity(plan.cells.len());
    for cell in &plan.cells {
        let hit = if opts.force { None } else { load_cached(&opts.cache_dir, cell) };
        results.push(hit.map(|r| (r, true)));
    }

    // Train misses, grouped by (scale, seed): one memoizing runner per
    // group, chunked prefetch for cross-cell parallelism.
    let mut train_groups: BTreeMap<(Scale, u64), Vec<usize>> = BTreeMap::new();
    for (i, cell) in plan.cells.iter().enumerate() {
        if results[i].is_some() {
            continue;
        }
        if let CellPayload::Train(t) = &cell.payload {
            train_groups.entry((t.scale, t.seed)).or_default().push(i);
        }
    }
    for ((scale, seed), indices) in train_groups {
        let mut runner = BenchmarkRunner::new(scale, seed);
        let chunk_size = dlbench_tensor::par::threads().max(1);
        for chunk in indices.chunks(chunk_size) {
            let keys: Vec<TrainKey> = chunk
                .iter()
                .map(|&i| match &plan.cells[i].payload {
                    CellPayload::Train(t) => t.key,
                    _ => unreachable!("train group holds train cells"),
                })
                .collect();
            runner.prefetch(&keys);
            for &i in chunk {
                let cell = &plan.cells[i];
                let CellPayload::Train(t) = &cell.payload else { unreachable!() };
                let result = train_result(&mut runner, t, &cell.label);
                store_cell(&opts.cache_dir, cell, &result)?;
                results[i] = Some((result, false));
            }
        }
    }

    // Dist, serve and fleet misses run sequentially in plan order,
    // each persisting as soon as it finishes.
    for (i, cell) in plan.cells.iter().enumerate() {
        if results[i].is_some() {
            continue;
        }
        let result = match &cell.payload {
            CellPayload::Train(_) => unreachable!("train misses handled above"),
            CellPayload::Dist(d) => dist_result(d)?,
            CellPayload::Serve { model, batch, load } => serve_result(model, *batch, load)?,
            CellPayload::Fleet(cfg) => simulate_fleet(cfg).to_json(),
        };
        store_cell(&opts.cache_dir, cell, &result)?;
        results[i] = Some((result, false));
    }

    let mut cells = Vec::with_capacity(plan.cells.len());
    let mut executed = 0;
    let mut cache_hits = 0;
    for (cell, entry) in plan.cells.iter().zip(results) {
        let (result, cached) = entry.expect("every cell resolved");
        if cached {
            cache_hits += 1;
        } else {
            executed += 1;
        }
        cells.push(CellRun {
            kind: cell.kind,
            label: cell.label.clone(),
            hash: cell.hash.clone(),
            params: cell.params.clone(),
            cached,
            result,
        });
    }
    Ok(SpecRun { name: plan.name.clone(), cells, executed, cache_hits })
}

/// Result document for a train cell. Wall-clock fields are
/// deliberately excluded: the simulated metrics are deterministic, so
/// re-running a spec reproduces this byte-for-byte.
fn train_result(runner: &mut BenchmarkRunner, cell: &TrainCellSpec, label: &str) -> JsonValue {
    let m = runner.metrics(cell.key, &cell.device.device(), label);
    JsonValue::Object(vec![
        ("label".into(), m.label.as_str().into()),
        ("device".into(), m.device.as_str().into()),
        ("train_time_s".into(), m.train_time_s.into()),
        ("test_time_s".into(), m.test_time_s.into()),
        ("accuracy_pct".into(), m.accuracy_pct.into()),
        ("converged".into(), m.converged.into()),
    ])
}

/// Result document for a dist cell (simulated metrics only — same
/// byte-for-byte determinism as train cells).
fn dist_result(cell: &DistCellSpec) -> Result<JsonValue, String> {
    let dcfg = DistConfig {
        workers: cell.workers,
        strategy: cell.strategy,
        max_steps: cell.max_steps,
        ..DistConfig::default()
    };
    let out =
        run_dist_training(cell.host, cell.setting, cell.dataset, cell.scale, cell.seed, &dcfg)?;
    let sims = JsonValue::Array(
        out.sims
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("device".into(), s.device.as_str().into()),
                    ("train_s".into(), s.train_seconds.into()),
                    ("test_s".into(), s.test_seconds.into()),
                    ("compute_s".into(), s.compute_seconds.into()),
                    ("comm_s".into(), s.comm_seconds.into()),
                    ("wait_s".into(), s.straggler_wait_seconds.into()),
                ])
            })
            .collect(),
    );
    Ok(JsonValue::Object(vec![
        ("workers".into(), cell.workers.into()),
        ("strategy".into(), cell.strategy.name().into()),
        ("executed_iterations".into(), out.executed_iterations.into()),
        ("paper_iterations".into(), out.paper_iterations.into()),
        ("final_loss".into(), out.final_loss().into()),
        ("accuracy_pct".into(), (out.accuracy * 100.0).into()),
        ("converged".into(), out.converged.into()),
        ("bytes_per_step".into(), (out.comm.bytes_per_step as f64).into()),
        ("sims".into(), sims),
    ]))
}

/// Result document for a serve cell: the serving dtype and (for int8)
/// the calibration stats the load report cannot know, then the load
/// report itself. Its `wall_s`, `achieved_rps` and `latency_ms` are
/// wall-clock measurements, so unlike the other kinds a re-run differs.
fn serve_result(
    model: &ModelSpec,
    batch: BatchConfig,
    load: &LoadConfig,
) -> Result<JsonValue, String> {
    let inputs = sample_inputs(model.dataset, model.scale, model.seed, 16);
    let (report, calibration) = serve_and_drive(model, batch, &inputs, load)?;
    let mut members = vec![("dtype".to_string(), JsonValue::from(model.dtype.name()))];
    if let Some(stats) = calibration {
        members.push(("calibration".to_string(), stats));
    }
    if let JsonValue::Object(rest) = report.to_json() {
        members.extend(rest);
    }
    Ok(JsonValue::Object(members))
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// The machine-readable sweep document (`BENCH_spec.json`). Omits
/// cached/executed flags so repeated runs of a deterministic spec are
/// byte-identical.
pub fn document(run: &SpecRun) -> JsonValue {
    JsonValue::Object(vec![
        ("format".into(), SPEC_FORMAT.into()),
        ("spec".into(), run.name.as_str().into()),
        (
            "cells".into(),
            JsonValue::Array(
                run.cells
                    .iter()
                    .map(|c| {
                        JsonValue::Object(vec![
                            ("kind".into(), c.kind.name().into()),
                            ("label".into(), c.label.as_str().into()),
                            ("hash".into(), c.hash.as_str().into()),
                            ("params".into(), params_json(&c.params)),
                            ("result".into(), c.result.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn f64_field(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

/// Folds a run's cells into paper-style reports: one table per dataset
/// for train cells, one per-device table for dist cells, a fact sheet
/// for serve cells.
pub fn aggregate_reports(run: &SpecRun) -> Vec<ExperimentReport> {
    let mut reports = Vec::new();

    let mut train_by_ds: BTreeMap<&str, Vec<&CellRun>> = BTreeMap::new();
    let mut dist_cells: Vec<&CellRun> = Vec::new();
    let mut serve_cells: Vec<&CellRun> = Vec::new();
    let mut fleet_cells: Vec<&CellRun> = Vec::new();
    for cell in &run.cells {
        match cell.kind {
            CellKindTag::Train => {
                let ds = cell.params.get("dataset").map(String::as_str).unwrap_or("?");
                train_by_ds.entry(ds).or_default().push(cell);
            }
            CellKindTag::Dist => dist_cells.push(cell),
            CellKindTag::Serve => serve_cells.push(cell),
            CellKindTag::Fleet => fleet_cells.push(cell),
        }
    }

    for (ds, cells) in train_by_ds {
        let mut r = ExperimentReport::new(
            format!("spec_train_{ds}"),
            format!("{} — training cells on {ds}", run.name),
        );
        for cell in cells {
            let v = &cell.result;
            r.rows.push(CellMetrics {
                label: v.get("label").and_then(JsonValue::as_str).unwrap_or(&cell.label).into(),
                device: v.get("device").and_then(JsonValue::as_str).unwrap_or("?").into(),
                train_time_s: f64_field(v, "train_time_s"),
                test_time_s: f64_field(v, "test_time_s"),
                accuracy_pct: f64_field(v, "accuracy_pct") as f32,
                converged: matches!(v.get("converged"), Some(JsonValue::Bool(true))),
                wall_train_s: 0.0,
            });
        }
        reports.push(r);
    }

    if !dist_cells.is_empty() {
        let mut r =
            ExperimentReport::new("spec_dist", format!("{} — data-parallel cells", run.name));
        for cell in dist_cells {
            let v = &cell.result;
            r.facts.push((
                cell.label.clone(),
                format!(
                    "loss {:.4}, acc {:.2}%, {} bytes/step",
                    f64_field(v, "final_loss"),
                    f64_field(v, "accuracy_pct"),
                    f64_field(v, "bytes_per_step"),
                ),
            ));
            for sim in v.get("sims").and_then(JsonValue::as_array).unwrap_or(&[]) {
                r.rows.push(CellMetrics {
                    label: cell.label.clone(),
                    device: sim.get("device").and_then(JsonValue::as_str).unwrap_or("?").into(),
                    train_time_s: f64_field(sim, "train_s"),
                    test_time_s: f64_field(sim, "test_s"),
                    accuracy_pct: f64_field(v, "accuracy_pct") as f32,
                    converged: matches!(v.get("converged"), Some(JsonValue::Bool(true))),
                    wall_train_s: 0.0,
                });
            }
        }
        reports.push(r);
    }

    if !serve_cells.is_empty() {
        let mut r = ExperimentReport::new("spec_serve", format!("{} — serving cells", run.name));
        for cell in serve_cells {
            let v = &cell.result;
            let p99 = v.get("latency_ms").and_then(|l| l.get("p99")).and_then(JsonValue::as_f64);
            let summary = match (p99, v.get("ok").and_then(JsonValue::as_f64)) {
                (Some(p99), Some(ok)) => format!(
                    "ok {}, shed {}, p99 {:.2}ms",
                    fmt_num(ok),
                    fmt_num(f64_field(v, "shed")),
                    p99,
                ),
                _ => "completed".to_string(),
            };
            r.facts.push((cell.label.clone(), summary));
        }
        reports.push(r);
    }

    if !fleet_cells.is_empty() {
        let mut r = ExperimentReport::new("spec_fleet", format!("{} — fleet cells", run.name));
        for cell in fleet_cells {
            let v = &cell.result;
            let p99 = v.get("latency_ms").and_then(|l| l.get("p99")).and_then(JsonValue::as_f64);
            let summary = match p99 {
                Some(p99) => format!(
                    "completed {}, shed rate {:.3}, SLO burn {:.3}, p99 {:.2}ms",
                    fmt_num(f64_field(v, "completed")),
                    f64_field(v, "shed_rate"),
                    f64_field(v, "slo_burn"),
                    p99,
                ),
                None => "completed".to_string(),
            };
            r.facts.push((cell.label.clone(), summary));
        }
        reports.push(r);
    }

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "unit",
        "vars": {"ds": "mnist", "fw": "${ds}-unused"},
        "defaults": {"scale": "tiny", "seed": 7},
        "grids": [
            {
                "kind": "train",
                "axes": {
                    "framework": ["tf", "caffe"],
                    "device": ["cpu", "gpu"]
                },
                "overrides": {"dataset": "${ds}", "setting_owner": "${framework}"}
            }
        ]
    }"#;

    #[test]
    fn expands_cartesian_grid_deterministically() {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        let plan = spec.expand().unwrap();
        assert_eq!(plan.cells.len(), 4);
        // Axes iterate sorted by name (device before framework), last
        // axis fastest: (cpu,tf), (cpu,caffe), (gpu,tf), (gpu,caffe)
        // — device is the slow axis.
        let devices: Vec<&str> = plan.cells.iter().map(|c| c.params["device"].as_str()).collect();
        assert_eq!(devices, ["cpu", "cpu", "gpu", "gpu"]);
        let frameworks: Vec<&str> =
            plan.cells.iter().map(|c| c.params["framework"].as_str()).collect();
        assert_eq!(frameworks, ["tf", "caffe", "tf", "caffe"]);
        // Interpolation resolved the dataset var and the axis-value
        // reference in overrides.
        assert!(plan.cells.iter().all(|c| c.params["dataset"] == "mnist"));
        assert_eq!(plan.cells[1].params["setting_owner"], "caffe");
        // Expansion is a pure function of the text.
        let again = ExperimentSpec::parse(SPEC).unwrap().expand().unwrap();
        assert_eq!(plan.to_json().pretty(), again.to_json().pretty());
    }

    #[test]
    fn hash_covers_all_resolved_params() {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        let plan = spec.expand().unwrap();
        // Same params → same hash; different seed → different hash.
        let reseeded = SPEC.replace("\"seed\": 7", "\"seed\": 8");
        let plan2 = ExperimentSpec::parse(&reseeded).unwrap().expand().unwrap();
        assert_ne!(plan.cells[0].hash, plan2.cells[0].hash);
        // 42.0 and 42 canonicalize identically.
        let int = SPEC.replace("\"seed\": 7", "\"seed\": 42");
        let float = SPEC.replace("\"seed\": 7", "\"seed\": 42.0");
        assert_eq!(
            ExperimentSpec::parse(&int).unwrap().expand().unwrap().cells[0].hash,
            ExperimentSpec::parse(&float).unwrap().expand().unwrap().cells[0].hash,
        );
    }

    #[test]
    fn unknown_keys_and_kinds_are_rejected() {
        let bad_key = SPEC.replace("\"device\"", "\"devcie\"");
        assert!(ExperimentSpec::parse(&bad_key).unwrap_err().contains("devcie"));
        let bad_kind = SPEC.replace("\"train\"", "\"trian\"");
        assert!(ExperimentSpec::parse(&bad_kind).unwrap_err().contains("trian"));
        let bad_top = SPEC.replace("\"vars\"", "\"variables\"");
        assert!(ExperimentSpec::parse(&bad_top).unwrap_err().contains("variables"));
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let dup = r#"{
            "name": "dup",
            "grids": [{
                "kind": "train",
                "axes": {"framework": ["tf", "tf"], "device": ["cpu"]},
                "overrides": {"dataset": "mnist"}
            }]
        }"#;
        let err = ExperimentSpec::parse(dup).unwrap().expand().unwrap_err();
        assert!(err.contains("duplicates"), "{err}");
    }

    #[test]
    fn var_cycles_are_rejected() {
        let cyclic = r#"{
            "name": "c",
            "vars": {"a": "${b}", "b": "${a}"},
            "grids": [{"kind": "train", "axes": {"device": ["cpu"]},
                       "overrides": {"framework": "tf", "dataset": "mnist"}}]
        }"#;
        let err = ExperimentSpec::parse(cyclic).unwrap_err();
        assert!(err.contains("cycle") || err.contains("unknown"), "{err}");
    }

    #[test]
    fn dist_and_serve_cells_validate() {
        let spec = r#"{
            "name": "mixed",
            "defaults": {"framework": "torch", "dataset": "mnist"},
            "grids": [
                {"kind": "dist", "axes": {"workers": [1, 2]},
                 "overrides": {"strategy": "ring", "max_steps": 5}},
                {"kind": "serve", "axes": {"deadline_ms": [50]},
                 "overrides": {"requests": 16}}
            ]
        }"#;
        let plan = ExperimentSpec::parse(spec).unwrap().expand().unwrap();
        assert_eq!(plan.cells.len(), 3);
        let CellPayload::Dist(d) = &plan.cells[1].payload else { panic!("dist cell") };
        assert_eq!((d.workers, d.max_steps), (2, Some(5)));
        assert_eq!(d.strategy.name(), "ring");
        let CellPayload::Serve { batch, load, .. } = &plan.cells[2].payload else {
            panic!("serve cell")
        };
        assert_eq!((load.requests, batch.max_batch), (16, 8));
        // Serve cells ignore inapplicable defaults and fill their own.
        assert_eq!(plan.cells[2].params["rate_rps"], "200");
    }

    #[test]
    fn imdb_on_a_dist_grid_is_a_structured_error_naming_the_fix() {
        let spec = r#"{
            "name": "text-dist",
            "defaults": {"framework": "tf", "dataset": "imdb"},
            "grids": [{"kind": "dist", "axes": {"workers": [2]},
                       "overrides": {"strategy": "ring"}}]
        }"#;
        let err = ExperimentSpec::parse(spec).unwrap().expand().unwrap_err();
        assert!(err.contains("imdb"), "{err}");
        assert!(err.contains("move the cell to a train grid"), "error must name the fix: {err}");
        // The same dataset on train and serve grids is accepted.
        let ok = r#"{
            "name": "text-ok",
            "defaults": {"framework": "tf", "dataset": "imdb"},
            "grids": [
                {"kind": "train", "axes": {"device": ["cpu"]}},
                {"kind": "serve", "axes": {"deadline_ms": [10]}}
            ]
        }"#;
        let plan = ExperimentSpec::parse(ok).unwrap().expand().unwrap();
        assert_eq!(plan.cells.len(), 2);
    }

    #[test]
    fn cross_modality_setting_transplant_is_a_structured_error() {
        // An MNIST-tuned setting takes pixel grids; an IMDB cell feeds
        // token sequences. The mismatch must fail at expansion with the
        // fix, not panic during model construction.
        let spec = r#"{
            "name": "transplant",
            "defaults": {"framework": "tf", "dataset": "imdb"},
            "grids": [{"kind": "train", "axes": {"device": ["cpu"]},
                       "overrides": {"setting_dataset": "mnist"}}]
        }"#;
        let err = ExperimentSpec::parse(spec).unwrap().expand().unwrap_err();
        assert!(err.contains("different input shapes"), "{err}");
        assert!(err.contains("set `setting_dataset`"), "error must name the fix: {err}");
    }

    #[test]
    fn fleet_cells_validate_and_canonicalize() {
        let spec = r#"{
            "name": "fleet",
            "defaults": {"framework": "tf", "dataset": "mnist"},
            "grids": [
                {"kind": "fleet",
                 "axes": {"routing": ["round-robin", "lq", "batch-aware"],
                          "replicas": [2, 4]},
                 "overrides": {"target_p99_ms": 25, "requests": 128}}
            ]
        }"#;
        let plan = ExperimentSpec::parse(spec).unwrap().expand().unwrap();
        assert_eq!(plan.cells.len(), 6);
        // Aliases canonicalize, so the hash never depends on spelling.
        let routings: Vec<&str> = plan.cells.iter().map(|c| c.params["routing"].as_str()).collect();
        assert_eq!(routings, ["rr", "least-queue", "batch-aware"].repeat(2));
        let CellPayload::Fleet(f) = &plan.cells[0].payload else { panic!("fleet cell") };
        assert_eq!((f.replicas, f.requests), (2, 128));
        assert_eq!(f.target_p99_ms, 25.0);
        // Defaults materialize in the canonical params.
        assert_eq!(plan.cells[0].params["rate_rps"], "1000");
        let bad = spec.replace("\"batch-aware\"", "\"fastest\"");
        let err = ExperimentSpec::parse(&bad).unwrap().expand().unwrap_err();
        assert!(err.contains("unknown routing policy"), "{err}");
    }

    #[test]
    fn fleet_only_keys_error_on_other_grids() {
        let on_serve = r#"{
            "name": "bad",
            "defaults": {"framework": "tf", "dataset": "mnist"},
            "grids": [{"kind": "serve", "axes": {"routing": ["rr"]},
                       "overrides": {"deadline_ms": 50}}]
        }"#;
        let err = ExperimentSpec::parse(on_serve).unwrap_err();
        assert!(err.contains("only applies to fleet grids"), "{err}");
        assert!(err.contains("`routing`") && err.contains("`serve`"), "{err}");
        let on_train = r#"{
            "name": "bad2",
            "grids": [{"kind": "train", "axes": {"device": ["cpu"]},
                       "overrides": {"framework": "tf", "dataset": "mnist",
                                     "replicas": 4}}]
        }"#;
        let err = ExperimentSpec::parse(on_train).unwrap_err();
        assert!(err.contains("`replicas`") && err.contains("`train`"), "{err}");
        // Every kind follows the one key rule: a dist-only override on a
        // train grid and a train-only axis on a serve grid fail the same
        // way, naming the kinds that take the key, instead of a silently
        // dropped override or a duplicate-cell error.
        let workers_on_train = r#"{
            "name": "bad3",
            "defaults": {"framework": "tf", "dataset": "mnist"},
            "grids": [{"kind": "train", "axes": {"device": ["cpu"]},
                       "overrides": {"workers": 4}}]
        }"#;
        let err = ExperimentSpec::parse(workers_on_train).unwrap_err();
        assert!(
            err.contains(
                "parameter `workers` only applies to dist grids, but this grid is kind `train`"
            ),
            "{err}"
        );
        let device_on_serve = r#"{
            "name": "bad4",
            "defaults": {"framework": "tf", "dataset": "mnist"},
            "grids": [{"kind": "serve", "axes": {"device": ["cpu", "gpu"]},
                       "overrides": {"deadline_ms": 50}}]
        }"#;
        let err = ExperimentSpec::parse(device_on_serve).unwrap_err();
        assert!(err.contains("parameter `device` only applies to train grids"), "{err}");
        assert!(err.contains("`serve`"), "{err}");
        // As a shared *default* the key stays silently filtered — only
        // grid-local axes/overrides are a structured error.
        let as_default = r#"{
            "name": "ok",
            "defaults": {"framework": "tf", "dataset": "mnist", "replicas": 4},
            "grids": [{"kind": "serve", "axes": {"deadline_ms": [50]}}]
        }"#;
        let plan = ExperimentSpec::parse(as_default).unwrap().expand().unwrap();
        assert!(!plan.cells[0].params.contains_key("replicas"));
    }

    #[test]
    fn corrupt_cache_entries_are_misses() {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        let plan = spec.expand().unwrap();
        let dir = std::env::temp_dir().join(format!("dlbench-spec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cell = &plan.cells[0];
        // Missing → miss.
        assert!(load_cached(&dir, cell).is_none());
        // Store/load round-trip.
        let result = JsonValue::Object(vec![("x".into(), 1.0.into())]);
        store_cell(&dir, cell, &result).unwrap();
        assert_eq!(load_cached(&dir, cell), Some(result.clone()));
        // Truncated entry → miss, not an error.
        let path = cache_path(&dir, cell);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(load_cached(&dir, cell).is_none());
        // Valid JSON with the wrong hash → miss.
        std::fs::write(&path, full.replace(&cell.hash, "0000000000000000")).unwrap();
        assert!(load_cached(&dir, cell).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
