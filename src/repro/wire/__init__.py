"""The wire format: patternized, MTF+Huffman+LZ split-stream compression."""

from .format import (
    container_index, decode_function, decode_module, decode_range,
    encode_module, encode_module_v3, function_image, wire_size,
)
from .patternize import normalize_labels, patternize_tree, width_class

__all__ = [
    "container_index", "decode_function", "decode_module", "decode_range",
    "encode_module", "encode_module_v3", "function_image", "normalize_labels",
    "patternize_tree", "width_class", "wire_size",
]
