"""Confidence-driven memory retrieval and temporal-adapter blocks, embedded
in a synthetic continual-segmentation simulator."""

from .adapter import (
    AdapterParams,
    BlockParams,
    MlpParams,
    adapter_params,
    block_backward,
    block_forward,
    block_params,
    grad_check,
)
from .fusion import fuse, memory_tokens
from .kernels import (
    AttentionParams,
    ShapeError,
    attention_params,
    conv3d,
    gelu,
    layer_norm,
    multi_head_attention,
    sigmoid,
    softmax,
)
from .memory import (
    BadMagicError,
    MemoryBase,
    MemoryEntry,
    MemoryFileError,
    ReplaceOutcome,
    RetrievalResult,
    ShapeInconsistencyError,
    TruncatedFileError,
    VersionMismatchError,
    insert_or_replace,
    load_base,
    new_base,
    retrieve_random,
    retrieve_topk,
    save_base,
    stats,
    tokens_of,
)
from .metrics import dice, iou
from .episode import (
    EpisodeReport,
    EpisodeSettings,
    MemoryConfig,
    make_tasks,
    run_episode,
)
from .pipeline import (
    EncoderConfig,
    bbox_of,
    encode_prompt,
    encode_stack,
    mask_feature,
    predict,
)
from .synth import (
    Frame,
    NoiseConfig,
    TaskSpec,
    gen_frame,
    preprocess_stream,
)

__version__ = "0.1.0"
