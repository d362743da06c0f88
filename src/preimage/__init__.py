"""Sample pre-images of black-box embedding functions with a conditional
denoising diffusion model."""

from .diffusion import (
    NoiseSchedule,
    SampleConfig,
    TrainConfig,
    TrainResult,
    cfg_combine,
    dynamic_threshold,
    make_cosine_schedule,
    make_linear_schedule,
    make_schedule,
    null_attr_token,
    null_id_token,
    predict_x0,
    q_sample,
    respace,
    sample,
    sample_batch,
    schedule_from_betas,
    train,
    training_loss,
)
from .embedders import (
    Dataset,
    DatasetSpec,
    EmbedderInfo,
    FrozenMlpEmbedder,
    LinearEmbedder,
    RadiusEmbedder,
    angular_distance,
    draw_points,
    generate_dataset,
    make_embedder,
    stack_samples,
)
from .errors import (
    AcceptanceStarvationError,
    CheckpointFormatError,
    ConfigurationError,
    DivergenceError,
    NumericalDomainError,
    PreimageError,
    SamplingError,
    ShapeError,
    StateError,
)
from .evaluation import (
    InversionResult,
    SweepRow,
    VerificationResult,
    cell_seed,
    diversity,
    energy_distance,
    guidance_sweep,
    identity_distances,
    identity_error,
    rejection_oracle,
    verification_accuracy,
    whitebox_gd_invert,
)
from .latent import (
    Direction,
    PcaBasis,
    custom_direction,
    fit_pca,
    lerp,
    mean_norm,
    percentile_split,
    project_first_k,
    slerp,
    traverse,
)
from .nn import (
    Adam,
    ConditionalDenoiser,
    EmaParams,
    LinearLayer,
    sigmoid,
    silu,
    silu_grad,
    sinusoidal_embed,
)
from .persistence import (
    load_checkpoint,
    read_csv,
    save_checkpoint,
    write_csv,
    write_scatter_svg,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
