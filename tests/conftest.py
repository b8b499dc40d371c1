"""Puts src/ on PYTHONPATH so that the subprocesses some tests start
(``python -m binpose.cli``) import binpose without an install, as the
test process itself does through pyproject's pytest ``pythonpath``."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
