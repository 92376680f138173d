from .generate import (
    Dataset,
    SlideRecord,
    SpecError,
    SynthSpec,
    build_dataset,
    generate_mask,
    generate_wsi,
    load_dataset,
    read_manifest,
    single_scale_caps,
    slide_seed,
    write_dataset,
    write_manifest,
)
from .ppm import PpmError, read_ppm, write_ppm
from .pyramid import (LEVEL_FACTORS, THUMB_SIDE, LesionMask, PyramidImage, RasterFileError,
                      mask_from_ppm, mask_to_ppm)

__all__ = [
    "Dataset", "SlideRecord", "SpecError", "SynthSpec", "build_dataset",
    "generate_mask", "generate_wsi", "load_dataset", "read_manifest",
    "single_scale_caps", "slide_seed", "write_dataset", "write_manifest",
    "PpmError", "read_ppm", "write_ppm",
    "LEVEL_FACTORS", "THUMB_SIDE", "LesionMask", "PyramidImage", "RasterFileError",
    "mask_from_ppm", "mask_to_ppm",
]
