"""Rewriting a saved checkpoint's JSON header, for tests that damage it."""

import json

import numpy as np


def rewrite_header(ckpt, edit):
    """Apply ``edit`` to a checkpoint's JSON header, keeping its payload."""
    raw = ckpt.read_bytes()
    header_len = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    header = json.loads(raw[16:16 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(raw[:12] + np.uint32(len(header_bytes)).tobytes() + header_bytes
                     + raw[16 + header_len:])
