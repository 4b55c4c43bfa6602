"""Cross-version byte stability of the dataset CSV, the prompt text and
the default run's report and transcript.

The CSV and prompt digests were recorded from the implementation that
stored each window as per-sample objects; the array-backed windows must
render the same bytes. The report digests were recorded before the
baselines' training kernels became GEMMs, which move trained weights at
rounding level; a kernel change that flips a predicted label fails here.
A change here changes every dataset hash, prompt or score a report
stands on, so update the digests only on purpose. The transcript's
digest fixes the default run's 32 prompt digests and mock response texts,
which no BLAS product enters.
"""

import hashlib

import pytest

from imutrace.cli import main
from imutrace.core import downsample, serialize_csv
from imutrace.prompting import PromptMode, build_prompt
from imutrace.synth import GeneratorConfig, generate_dataset, uniform_counts

GOLDEN = {
    # (gen seed, rate Hz): (sha256 of the CSV, sha256 of the joined cot prompts)
    (0, 100.0): (
        "13756435212778b7016eb3445ddcabe13e65a2bdd7b03a4d98c9b22c013661fc",
        "027c71da0699d6f1ee377a69afe93c28b88a86d130d9d99f02c7e0a39bc7fa23",
    ),
    (3, 50.0): (
        "3c9ea222d872277f5aadc448d7d003582d469a6a1828676ed4a7b7a5785395b0",
        "1427e0ce23066498a2135c02b8c93283ca03d6466afca509e872bf1f50106f33",
    ),
    (7, 30.0): (
        "1ec9d22837d26a2151fe421e049f5eced5b6217b52561691217efecd1983743d",
        "ccebec25e3a435d7a5882dd22c8b7ca0f56f1661465403e99c8ced07d22da4aa",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed, rate", sorted(GOLDEN))
def test_golden_bytes(seed, rate):
    windows, _ = generate_dataset(GeneratorConfig(seed=seed, rate=rate), uniform_counts(1))
    prompts = "\n".join(
        build_prompt(downsample(w, 3.0), PromptMode.COT).text for w in windows
    )
    assert (_sha256(serialize_csv(windows)), _sha256(prompts)) == GOLDEN[(seed, rate)]


# sha256 of `imutrace run --per-class 12 --gen-seed 7 --out run`'s outputs
REPORT_GOLDEN = {
    "report.jsonl": "5a2adb1eef91c6b37cf135195fe511f8bab46efc32bf6ebfc2c36bfe2923ed34",
    "run_manifest.json": "98fe74897008da36805581538380c894d710b91989e85bd23079f27ca17fc770",
    "transcript.jsonl": "306b574ce5541ce97fc56e2f34a804df8fb5d80d855dcb855f84b9a6294371ba",
}


def test_golden_report(tmp_path, monkeypatch):
    # relative --out, as the manifest records the paths it was given
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--per-class", "12", "--gen-seed", "7", "--out", "run"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in REPORT_GOLDEN
    }
    assert digests == REPORT_GOLDEN
