use std::fmt;

/// Error type for pipeline orchestration.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Dataset construction produced no usable tiles.
    EmptyDataset,
    /// The diffusion substrate reported an error.
    Diffusion(dp_diffusion::DiffusionError),
    /// The design rules were inconsistent.
    Rules(dp_drc::RulesError),
    /// Generation was requested before training.
    NotTrained,
    /// The pipeline configuration was invalid.
    Config(ConfigError),
    /// Pattern generation failed structurally.
    Generate(GenerateError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyDataset => write!(f, "no usable tiles in the dataset"),
            PipelineError::Diffusion(e) => write!(f, "diffusion error: {e}"),
            PipelineError::Rules(e) => write!(f, "design rule error: {e}"),
            PipelineError::NotTrained => {
                write!(f, "generation requested before the model was trained")
            }
            PipelineError::Config(e) => write!(f, "configuration error: {e}"),
            PipelineError::Generate(e) => write!(f, "generation error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Diffusion(e) => Some(e),
            PipelineError::Rules(e) => Some(e),
            PipelineError::Config(e) => Some(e),
            PipelineError::Generate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dp_diffusion::DiffusionError> for PipelineError {
    fn from(e: dp_diffusion::DiffusionError) -> Self {
        PipelineError::Diffusion(e)
    }
}

impl From<dp_drc::RulesError> for PipelineError {
    fn from(e: dp_drc::RulesError) -> Self {
        PipelineError::Rules(e)
    }
}

impl From<ConfigError> for PipelineError {
    fn from(e: ConfigError) -> Self {
        PipelineError::Config(e)
    }
}

impl From<GenerateError> for PipelineError {
    fn from(e: GenerateError) -> Self {
        PipelineError::Generate(e)
    }
}

/// A rejected configuration — returned by [`crate::ServiceBuilder::build`],
/// [`crate::PatternService::submit`] and [`crate::Pipeline::from_tiles`]
/// instead of panicking, so services can validate untrusted configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The reverse-sampling stride must be at least 1.
    ZeroStride,
    /// The per-item sampling attempt budget must be at least 1.
    ZeroAttempts,
    /// The sampling micro-batch (denoising lanes per U-Net call) must be
    /// at least 1.
    ZeroMicroBatch,
    /// The fold channel count must be a perfect square.
    ChannelsNotSquare {
        /// Offending channel count.
        channels: usize,
    },
    /// The topology matrix side must be divisible by the fold patch `√C`.
    SideNotDivisible {
        /// Configured matrix side.
        matrix_side: usize,
        /// Fold patch side `√C`.
        patch: usize,
    },
    /// Admission backpressure: the service's pending-request queue is at
    /// its [`crate::ServiceBuilder::max_queued_requests`] bound. Not a
    /// misconfiguration of the spec — retry after the queue drains (a
    /// serving front-end maps this to HTTP 429).
    QueueFull {
        /// Requests pending when admission was refused.
        queued: usize,
        /// The configured bound.
        max_queued: usize,
    },
    /// `first_index + count` overflows `usize` — the request's absolute
    /// item-index range is unrepresentable.
    IndexOverflow {
        /// The spec's `first_index`.
        first_index: usize,
        /// The spec's `count`.
        count: usize,
    },
    /// A frozen-region conditioning does not span the model's topology
    /// tensor: inpainting masks must cover every channel-major entry.
    ConditioningShape {
        /// Entries in the model's topology tensor (`C · M · M`).
        expected: usize,
        /// Entries the spec's frozen mask actually covers.
        mask: usize,
    },
    /// The solver window is smaller than the topology's scan-line count.
    WindowTooSmall {
        /// Unfolded topology matrix side (scan lines per axis).
        matrix_side: usize,
        /// Configured window width in nm.
        target_width: i64,
        /// Configured window height in nm.
        target_height: i64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroStride => write!(f, "sample stride must be at least 1"),
            ConfigError::ZeroAttempts => {
                write!(f, "per-item sampling attempt budget must be at least 1")
            }
            ConfigError::ZeroMicroBatch => {
                write!(f, "sampling micro-batch must be at least 1")
            }
            ConfigError::ChannelsNotSquare { channels } => {
                write!(f, "fold channel count {channels} is not a perfect square")
            }
            ConfigError::QueueFull { queued, max_queued } => write!(
                f,
                "admission queue is full ({queued} pending, bound {max_queued}); retry later"
            ),
            ConfigError::IndexOverflow { first_index, count } => write!(
                f,
                "first_index {first_index} + count {count} overflows the item index space"
            ),
            ConfigError::ConditioningShape { expected, mask } => write!(
                f,
                "frozen-region mask covers {mask} entries but the model's \
                 topology tensor has {expected}"
            ),
            ConfigError::SideNotDivisible { matrix_side, patch } => write!(
                f,
                "matrix side {matrix_side} is not divisible by the fold patch {patch}"
            ),
            ConfigError::WindowTooSmall {
                matrix_side,
                target_width,
                target_height,
            } => write!(
                f,
                "solver window {target_width}x{target_height} nm cannot hold \
                 {matrix_side} scan intervals per axis"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A structural failure during batch generation. Ordinary solver
/// infeasibility and pre-filter rejections are *not* errors — they are
/// counted in the [`crate::PipelineReport`] (including its `shortfall`
/// field); this type covers failures that indicate a broken invariant.
#[derive(Debug)]
#[non_exhaustive]
pub enum GenerateError {
    /// The solver's Δ vectors did not match the topology they were solved
    /// for — a solver/squish contract violation.
    Assembly(dp_squish::SquishError),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Assembly(e) => {
                write!(f, "solver output did not assemble into a pattern: {e}")
            }
        }
    }
}

impl std::error::Error for GenerateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenerateError::Assembly(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = PipelineError::from(dp_diffusion::DiffusionError::EmptyDataset);
        assert!(e.to_string().contains("diffusion"));
        assert!(e.source().is_some());
        assert!(PipelineError::NotTrained.source().is_none());
    }

    #[test]
    fn config_errors_display() {
        let e = PipelineError::from(ConfigError::ZeroStride);
        assert!(e.to_string().contains("stride"));
        let e = ConfigError::WindowTooSmall {
            matrix_side: 64,
            target_width: 32,
            target_height: 32,
        };
        assert!(e.to_string().contains("64"));
    }
}
