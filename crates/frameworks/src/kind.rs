//! Framework identities and static metadata (paper Table I).

use dlbench_nn::Initializer;
use dlbench_simtime::{links, profiles, ExecutionProfile, LinkProfile};

/// One of the three deep-learning frameworks the paper compares.
///
/// `Ord` follows the declaration (paper presentation) order, so maps
/// keyed by framework iterate deterministically in report output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameworkKind {
    /// TensorFlow 1.3 — dataflow-graph execution, Eigen/CUDA kernels.
    TensorFlow,
    /// Caffe 1.0 — layer-wise C++ solver, OpenBLAS/CUDA kernels.
    Caffe,
    /// Torch7 — eager Lua-scripted execution.
    Torch,
}

impl FrameworkKind {
    /// All frameworks in the paper's presentation order.
    pub const ALL: [FrameworkKind; 3] =
        [FrameworkKind::TensorFlow, FrameworkKind::Caffe, FrameworkKind::Torch];

    /// Parses a framework name case-insensitively (`tf`/`tensorflow`,
    /// `caffe`, `torch`) — the one spelling table the CLI and run-spec
    /// files share.
    pub fn parse(raw: &str) -> Result<FrameworkKind, String> {
        match raw.to_ascii_lowercase().as_str() {
            "tf" | "tensorflow" => Ok(FrameworkKind::TensorFlow),
            "caffe" => Ok(FrameworkKind::Caffe),
            "torch" => Ok(FrameworkKind::Torch),
            _ => Err(format!("unknown framework `{raw}` (expected tf|caffe|torch)")),
        }
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::TensorFlow => "TensorFlow",
            FrameworkKind::Caffe => "Caffe",
            FrameworkKind::Torch => "Torch",
        }
    }

    /// Abbreviation used in the paper's figures ("TF").
    pub fn abbrev(&self) -> &'static str {
        match self {
            FrameworkKind::TensorFlow => "TF",
            FrameworkKind::Caffe => "Caffe",
            FrameworkKind::Torch => "Torch",
        }
    }

    /// Static properties from the paper's Table I.
    pub fn meta(&self) -> FrameworkMeta {
        match self {
            FrameworkKind::TensorFlow => FrameworkMeta {
                framework: *self,
                version: "1.3.0",
                hash_tag: "ab0fcac",
                library: "Eigen & CUDA",
                interfaces: "Java, Python, Go, R",
                lines_of_code: 1_281_085,
                license: "Apache",
                website: "https://www.tensorflow.org/",
            },
            FrameworkKind::Caffe => FrameworkMeta {
                framework: *self,
                version: "1.0.0",
                hash_tag: "c430690",
                library: "OpenBLAS & CUDA",
                interfaces: "Python, Matlab",
                lines_of_code: 69_608,
                license: "BSD",
                website: "http://caffe.berkeleyvision.org/",
            },
            FrameworkKind::Torch => FrameworkMeta {
                framework: *self,
                version: "torch7",
                hash_tag: "0219027",
                library: "optim & CUDA",
                interfaces: "Lua",
                lines_of_code: 29_750,
                license: "BSD",
                website: "http://torch.ch/",
            },
        }
    }

    /// The framework's default weight-initialization scheme (part of the
    /// personality, not of a transferable default setting).
    pub fn initializer(&self) -> Initializer {
        match self {
            FrameworkKind::TensorFlow => Initializer::TruncatedNormal { std: 0.1, bias: 0.1 },
            FrameworkKind::Caffe => Initializer::Xavier,
            FrameworkKind::Torch => Initializer::LecunUniform,
        }
    }

    /// Execution profile feeding the simulated device timing model.
    pub fn execution_profile(&self) -> ExecutionProfile {
        match self {
            FrameworkKind::TensorFlow => profiles::tensorflow(),
            FrameworkKind::Caffe => profiles::caffe(),
            FrameworkKind::Torch => profiles::torch(),
        }
    }

    /// Interconnect profile feeding the distributed communication-cost
    /// model: the transport stack each framework's paper-era
    /// distribution story rides on (TensorFlow's gRPC workers, Caffe's
    /// MPI forks, Torch's Lua-driven sockets).
    pub fn link_profile(&self) -> LinkProfile {
        match self {
            FrameworkKind::TensorFlow => links::grpc_10gbe(),
            FrameworkKind::Caffe => links::mpi_10gbe(),
            FrameworkKind::Torch => links::socket_10gbe(),
        }
    }
}

impl std::fmt::Display for FrameworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static framework properties (paper Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameworkMeta {
    /// Which framework this row describes.
    pub framework: FrameworkKind,
    /// Release version studied in the paper.
    pub version: &'static str,
    /// Git hash tag from the paper.
    pub hash_tag: &'static str,
    /// Backing math library.
    pub library: &'static str,
    /// Language bindings listed in the paper.
    pub interfaces: &'static str,
    /// Lines of code reported in the paper.
    pub lines_of_code: u64,
    /// License.
    pub license: &'static str,
    /// Project website.
    pub website: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let tf = FrameworkKind::TensorFlow.meta();
        assert_eq!(tf.version, "1.3.0");
        assert_eq!(tf.lines_of_code, 1_281_085);
        assert_eq!(tf.license, "Apache");
        let caffe = FrameworkKind::Caffe.meta();
        assert_eq!(caffe.version, "1.0.0");
        assert_eq!(caffe.lines_of_code, 69_608);
        let torch = FrameworkKind::Torch.meta();
        assert_eq!(torch.version, "torch7");
        assert_eq!(torch.lines_of_code, 29_750);
        assert_eq!(torch.interfaces, "Lua");
    }

    #[test]
    fn parse_accepts_every_spelling_case_insensitively() {
        for (raw, fw) in [
            ("tf", FrameworkKind::TensorFlow),
            ("TensorFlow", FrameworkKind::TensorFlow),
            ("caffe", FrameworkKind::Caffe),
            ("Torch", FrameworkKind::Torch),
        ] {
            assert_eq!(FrameworkKind::parse(raw), Ok(fw), "{raw}");
        }
        let err = FrameworkKind::parse("mxnet").unwrap_err();
        assert!(err.contains("`mxnet`") && err.contains("tf|caffe|torch"), "{err}");
    }

    #[test]
    fn personalities_differ() {
        assert_ne!(FrameworkKind::TensorFlow.initializer(), FrameworkKind::Caffe.initializer());
        assert_ne!(
            FrameworkKind::Caffe.execution_profile().name,
            FrameworkKind::Torch.execution_profile().name
        );
        assert_eq!(FrameworkKind::TensorFlow.abbrev(), "TF");
    }
}
