"""Pipeline configuration.

The reference scatters configuration across module-level constants
(`/root/reference/DeepSeek-OCR-master/DeepSeek-OCR-vllm/config.py:8-29`) and a
Gradio-exposed dict (`/root/reference/app/config.py:29-71`).  Here it is one
explicit dataclass handed to the pipeline builder, so a user can construct
several differently-configured pipelines in one process (the reference cannot:
its config is frozen at import time).

Nothing here imports Ray; this module is pure data.
"""

from __future__ import annotations

from dataclasses import dataclass


# Resolution presets — vision-token cost per page depends on these.
# Mirrors /root/reference/DeepSeek-OCR-master/DeepSeek-OCR-vllm/config.py:1-12
# and /root/reference/app/config.py:29-35 (named presets).
RESOLUTION_PRESETS: dict[str, dict] = {
    "tiny": {"base_size": 512, "image_size": 512, "crop_mode": False},
    "small": {"base_size": 640, "image_size": 640, "crop_mode": False},
    "base": {"base_size": 1024, "image_size": 1024, "crop_mode": False},
    "large": {"base_size": 1280, "image_size": 1280, "crop_mode": False},
    # "Gundam" dynamic-resolution mode (the reference default / recommendation)
    "gundam": {"base_size": 1024, "image_size": 640, "crop_mode": True},
}

# Prompt modes — mirrors the task table at /root/reference/app/config.py:40-71.
# Keys are English equivalents of the reference's Chinese task names.
PROMPT_MODES: dict[str, dict] = {
    "markdown": {
        "prompt": "<image>\n<|grounding|>Convert the document to markdown. ",
        "has_grounding": True,
    },
    "free_ocr": {"prompt": "<image>\nFree OCR. ", "has_grounding": False},
    "locate": {
        "prompt_template": "<image>\nLocate <|ref|>{text}<|/ref|> in the image. ",
        "has_grounding": True,
        "requires_input": True,
    },
    "image_ocr": {
        "prompt": "<image>\n<|grounding|>OCR this image. ",
        "has_grounding": True,
    },
    "parse_figure": {"prompt": "<image>\nParse the figure. ", "has_grounding": False},
    "describe": {
        "prompt": "<image>\nDescribe this image in detail. ",
        "has_grounding": False,
    },
    "custom": {
        "prompt_template": "<image>\n{text}",
        "has_grounding": None,  # decided by presence of <|grounding|> in the text
        "requires_input": True,
    },
}


def get_prompt(mode: str, custom_text: str = "") -> tuple[str, bool]:
    """Resolve a prompt mode to (prompt, has_grounding).

    Same dispatch semantics as /root/reference/app/config.py:104-123:
    unknown mode falls back to Free OCR; 'locate' strips its input,
    'custom' detects grounding from the user text.
    """
    cfg = PROMPT_MODES.get(mode)
    if not cfg:
        return "<image>\nFree OCR. ", False
    if cfg.get("requires_input"):
        if mode == "locate":
            return cfg["prompt_template"].format(text=custom_text.strip()), True
        if mode == "custom":
            return (
                cfg["prompt_template"].format(text=custom_text),
                "<|grounding|>" in custom_text,
            )
    return cfg["prompt"], cfg["has_grounding"]


@dataclass
class PipelineConfig:
    """Everything the extract pipeline needs, in one place."""

    # --- model / preprocess (reference DSV/config.py:8-16) ---
    resolution: str = "gundam"
    min_crops: int = 2
    max_crops: int = 6
    prompt_mode: str = "markdown"
    prompt_text: str = ""  # for locate / custom modes
    max_tokens: int = 8192
    # n-gram no-repeat decoding params per entry point:
    # image 30/90, pdf 20/50, batch-eval 40/90 (see SURVEY.md T3)
    ngram_size: int = 20
    ngram_window: int = 50
    # drop pages whose generation hit max_tokens without EOS
    # (reference SKIP_REPEAT, DSV/config.py:16; DSV/run_dpsk_ocr_pdf.py:295-299)
    skip_repeat: bool = True
    # OCR model backend: "stub" (deterministic sandbox stand-in) or "vllm"
    # (real engine, import-gated — stages/model_vllm.py); model_path points
    # at the DeepSeek-OCR weights directory (reference DSV/config.py MODEL_PATH)
    model_backend: str = "stub"
    model_path: str = ""

    # --- Ray execution ---
    # media (OCR) actor pool: int (fixed pool), (min, max) (autoscaling), or
    # None → auto: fixed pool of ~75% of cluster CPUs, sized at pipeline
    # build.  A fixed pool starts all actors immediately — measured ~15%
    # faster end-to-end than (min, max) autoscaling on this stage, whose
    # ramp-up lags the 65-block backlog.  With a real GPU model set
    # num_gpus=1 and the GPU count becomes the effective cap.
    ocr_concurrency: object = None
    ocr_batch_size: int = 64
    ocr_num_cpus: float = 1.0
    ocr_num_gpus: float = 0.0  # 1.0 per actor with a real vLLM model
    # A3 memory-based auto-sizing (used when ocr_concurrency is None):
    # per-accelerator memory and target utilization; None → CPU-only rule.
    # On a real cluster set gpu_memory_gb from the device spec (e.g. 80 for
    # A100-80G); the auto path then caps the pool so each actor's
    # ocr_batch_size concurrent sequences fit (reference empirical rule:
    # ~800 MB per sequence at 8192 max_tokens).
    gpu_memory_gb: float | None = None
    gpu_memory_utilization: float = 0.85
    cpu_batch_size: int = 256
    # hash-partitioning width for checkpointed runs: ``partition_id`` is
    # the per-doc md5 low-32 bucket (``assemble.stable_bucket``), the rule
    # the reference oracle pins
    num_partitions: int = 16
    # units per salt chunk for exchange="salted" (skew defusal: no assembly
    # group holds more than ~this many units of one document)
    salt_span: int = 64

    # --- page assembly (reference DSV/run_dpsk_ocr_pdf.py:302-304:
    # ``contents += content + f'\n{page_num}\n'`` with page_num itself
    # starting with a newline → TWO newlines before the marker) ---
    page_split: str = "\n\n<--- Page Split --->\n"

    @property
    def preset(self) -> dict:
        return RESOLUTION_PRESETS[self.resolution]

    @property
    def base_size(self) -> int:
        return self.preset["base_size"]

    @property
    def image_size(self) -> int:
        return self.preset["image_size"]

    @property
    def crop_mode(self) -> bool:
        return self.preset["crop_mode"]

    @property
    def prompt(self) -> str:
        return get_prompt(self.prompt_mode, self.prompt_text)[0]

    @property
    def has_grounding(self) -> bool:
        return bool(get_prompt(self.prompt_mode, self.prompt_text)[1])


DEFAULT_CONFIG = PipelineConfig()


def estimate_max_concurrency(effective_gb: float, max_tokens: int = 8192) -> int:
    """A3: concurrency estimate from available memory and generation length
    — the reference's empirical rule (~800 MB per concurrent sequence at
    8192 max_tokens, linear in max_tokens; gradio_vllm_demo.py:1754-1762).
    The caller supplies effective memory (the reference uses
    ``min(total*gmu, free) - 1 GB``) and applies any engine-level cap
    itself — the reference's own clamp ``min(est, max(16, cfg, est))`` is
    vacuous (the inner max includes est), so it is not reproduced here."""
    per_seq_mb = 800.0 * max(1.0, float(max_tokens) / 8192.0)
    return int(max(1, (effective_gb * 1024.0) / per_seq_mb))
