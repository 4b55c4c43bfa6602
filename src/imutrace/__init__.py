"""Zero-shot IMU trajectory recognition testbed.

Synthesizes labeled 9-axis IMU windows, classifies them with
prompt-driven chat models (mock or live) and four from-scratch
baselines, and renders precision/recall/F1 comparison reports.
Import each name from the module that defines it
(``imutrace.core``, ``imutrace.prompting``, ``imutrace.llm``, ...).
"""

__version__ = "0.1.0"
