"""The parameter/memory report, pinned: every row of ``parameter_memory_report``
for the five freeze policies on the desk backbone, with the linear and UNet
heads, the small adapter and the traced activation estimate.

The fixture changes only when the report changes on purpose. Regenerate it
with ``PYTHONPATH=src python tests/test_report_rows.py``.
"""

import json
from pathlib import Path

import pytest

from peftseg.decoders import DecoderConfig
from peftseg.diagnostics import parameter_memory_report

from conftest import TINY_ADAPTER, tiny_backbone

FIXTURE = Path(__file__).with_name("report_rows.json")
HEADS = ("linear", "unet")


def report(kind: str) -> list[dict]:
    return parameter_memory_report(tiny_backbone(), DecoderConfig(kind, 2), adapter=TINY_ADAPTER,
                                   include_activations=True)


@pytest.mark.parametrize("kind", HEADS)
def test_report_rows_match_the_fixture(kind):
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert report(kind) == fixture[kind]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({kind: report(kind) for kind in HEADS}, indent=1) + "\n",
                       encoding="utf-8")
