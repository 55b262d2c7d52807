"""Golden digests: the shipped small configs must keep producing the same bytes.

Criterion 8 and the rerun tests only prove that two runs of the *same* code
agree.  This module pins the SHA-256 of every artifact that
`compare_small.cfg`, `falsify_lti2.cfg` and `falsify_tank.cfg` write, so a
refactor or optimisation that flips a single bit of any archive, snapshot,
plot row, region report, trial log or report fails here.  The digests were
recorded once from the code before any such change; a change that alters
numerics on purpose must say so and re-record them.  So far one has been
re-recorded: `compare_small/report.json`, when the per-run
`estimated_execution_time_s` (evaluations times a configured constant) left
report.json, and the four falsify `report.json` digests, when report.json
began to record the surrogate that produced it (`n_initial`, the ARX orders
under `arx` and the input signal under `signal`).  No other falsify
artifact changed.

Those falsify configs end every trial after about three real simulations,
so each trial runs a single surrogate search.  `falsify_tank_long` is
`falsify_tank.cfg` with a requirement the tank meets and a real budget of
20, so each of its two trials refits the ARX model and searches the
surrogate 18 times.  Its digests were recorded from the code before the
surrogate search called scipy's filter kernel directly and clipped with
`np.minimum(np.maximum(...))`.  `falsify_tank_long_fir` is the same run with
`falsify.arx_na = 0`, so every surrogate is a pure FIR filter; its digests
were recorded while `arx.lfilter` still sent such filters through public
`scipy.signal.lfilter`.  Its stats.csv equals `falsify_tank_long`'s, and its
report.json differs from it only in `arx.na`.  `falsify_tank_long_linear`
is the same run with `signal.interpolation = linear`, so every input signal
interpolates between its control points; `falsify_tank_random` is
`falsify_tank.cfg` with `falsify.method = random`, the pure-random
comparator.  Both were recorded from the code in which `build_signal` and
the surrogate objective still expanded theta separately and `falsify` ran
its initial dataset and its refinement rounds in two loops.

`falsify_tank_band` is `falsify_tank.cfg` with a nested requirement, "the
level never holds inside [10, 11] for nine samples in a row from t = 10 to
40", a real budget of 12 and six trials.  Trials 2 and 3 falsify after 7 and
8 surrogate rounds and trial 5 spends its whole budget, so falsifying and
best thetas come out of long annealing runs.  Its digests were recorded from
the code in which the annealer still scored one proposal per surrogate call.

`compare_small` runs small populations.  `compare_default_1rep` is
`compare_default.cfg` with one repetition, the benchmark's compare-default
inputs: a population-40 plain search and 20-member, four-generation region
runs.  Its digests were recorded from the code in which a population was
still a list of per-member copies of archive rows.

The nine runs take a few seconds in total.
"""

import hashlib
from pathlib import Path

import pytest

from sasbt.harness import ExperimentConfig, parse_config_text, run_compare, run_falsify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

LONG = {"falsify.requirement": "always[0,50] y0 <= 24", "falsify.real_budget": "20",
        "experiment.repetitions": "2"}
# name -> (bundled config, overridden keys); the other names run their config as is
DERIVED = {
    "compare_default_1rep": ("compare_default", {"experiment.repetitions": "1"}),
    "falsify_tank_long": ("falsify_tank", LONG),
    "falsify_tank_long_fir": ("falsify_tank", {**LONG, "falsify.arx_na": "0"}),
    "falsify_tank_long_linear": ("falsify_tank", {**LONG, "signal.interpolation": "linear"}),
    "falsify_tank_random": ("falsify_tank", {"falsify.method": "random"}),
    "falsify_tank_band": ("falsify_tank", {
        "falsify.requirement": "always[10,40] eventually[0,8] (y0 <= 10 or y0 >= 11)",
        "falsify.real_budget": "12", "experiment.repetitions": "6"}),
}

GOLDEN = {
    "compare_default_1rep": {
        "archive_nsga2-r00.csv": "ae1778864307244ee3bbbefbc8f76522cff63f06e416d6d4ea519990321f2ac5",
        "archive_nsga2dt-r00.csv": "efee675c176c4c8c07f4fee4447b1ef92490cceafc495fd763a2baedb1685f2d",
        "plots.csv": "973af247301cfac09efa757059f42e2329cfb96dabcedde720d73c8635f795f4",
        "regions.json": "c72c656c1041ff9c034da215ed71f76b39ac61006fc5d0581c9fd28254ecfe43",
        "report.json": "2e4551fe0d1d9bc96b668138040e4f9e4dbbce5f0c0016e66df1be696b38c191",
        "snapshots.csv": "063355cb9341207ea2109ca79b615f874bdafb4270bc5734ff5a4e626c9781b1",
    },
    "compare_small": {
        "archive_nsga2-r00.csv": "7a7e118cef295482ae85faf987a70c6141e37a8383623a90c9e9379ae121e9c9",
        "archive_nsga2-r01.csv": "5f391a1895bd0235435f785efb2629afd4bc21630d77cc1be591651a576e42ef",
        "archive_nsga2-r02.csv": "48e60d2367106aa6f3f52a999b1985233c453b9a360d000f2e2dbb127df723e3",
        "archive_nsga2dt-r00.csv": "2971468739bc2ac695ff68e1e97865218ace8da3b0687edba1083b597b626b2a",
        "archive_nsga2dt-r01.csv": "2009969db5290261759375be9939b45921eb7caf000dd6f6d8342b91c820a255",
        "archive_nsga2dt-r02.csv": "ef28006832a4da38ae26322a30ef2d02d361f0910bec11ffd30c1e76ce983f12",
        "plots.csv": "33268d859c7687ffa7aeb735f1e3553db783920b48d5fe0dda89c407190d3600",
        "regions.json": "9448d309e74562d13ab3425f50b3e7ca74979f1755d403ee40f8da4e6c10ba03",
        "report.json": "608becbaf240c49944362213b92415c3e6e98541ee9e3db4a43a32608d345d44",
        "snapshots.csv": "5753f2683f9e812a027d0f3100e0a89a9fbc5f93095f9dd58e8665d8a8179f2c",
    },
    "falsify_lti2": {
        "report.json": "a3ff306b96779d266878fd4b5acf6cafc1526b755b8cef0d9d8f50217ed0cff4",
        "stats.csv": "c1d800b25c953661a3f7c872c36287755c2a6604f4e5a169825b12cbabafe00e",
        "trial_00.jsonl": "287d8e0c07cba8b974e4b271f35238843343afa990d9eb5e7d4f9df7ba8a953e",
        "trial_01.jsonl": "9990ce3421d0cd1fe47f8a7710ae1cbfa1030a2d8390f73a6d41b468eb1e422f",
        "trial_02.jsonl": "e2b09f7bc18c51e76efc8e00de9d06da11dfcfeea39b167a38926cb9d5a87918",
        "trial_03.jsonl": "31518246e98984032ee582ed14fdaee5cacaa43800a8a018894addc77bf18489",
        "trial_04.jsonl": "b839d8717b58d99ee562e5d78ba2a1e99cee77d927398bd38194eb5b9a0cd874",
        "trial_05.jsonl": "749610ef4a74f1d10960647da6fb44cd445e95a8c37d49e33af9465a16bb91a3",
        "trial_06.jsonl": "66fad4b251bf61f489e2acc9a52d4de248ca7f208ce812e840ce0b5535ca8b4b",
        "trial_07.jsonl": "574309598718f5992bad0c62ca482465b98ba1fa5463b8f11b6f0793b9cd78c6",
        "trial_08.jsonl": "85ab86666aa499e2f315eecce9c3b0703549a737dac6a3b806f20fa8f15a250e",
        "trial_09.jsonl": "95dab2cfdd371e2bf0f922f1d8d576ebb114283a1550c4d689d979ffabb136bf",
    },
    "falsify_tank": {
        "report.json": "301fa72f332cc3c38bf215b5df17c3c38f09eda9f742a71fd152109bfe7bf80e",
        "stats.csv": "9f18fefa1fa7fe3a2ed21c4e133c887021585d042bbee20b17b2799d04d12083",
        "trial_00.jsonl": "4604259ea7f04cad6dbf06ff67006e8b467e09873bca6431eafe7f26b1dea962",
        "trial_01.jsonl": "f024e73f78a3c335a28275853315bea9d97420e43659528318aedd77e1dd462f",
        "trial_02.jsonl": "87c172f6025f822459b7088eee39a9bb8395b3a972dfe5a9f525149c2be1170f",
        "trial_03.jsonl": "190b4b8c2469cff62bf52b7443e02b23cbff2b7e8030dfc1f249e9664627ff25",
        "trial_04.jsonl": "fc8888f3704d5b81a7537a544b61c2c40c1cb1e8d624f8e58d85f11bff582788",
        "trial_05.jsonl": "da2f79d5c4e024487b01528e267977fd5cd1a48f53f99b3a06b52c414f435763",
        "trial_06.jsonl": "3387f91ce1c3c1c5a70a277162ac2e90be055bd896f07d09df1d6287f4fff23d",
        "trial_07.jsonl": "229c7fff6dbaef17953867200238e6a852a117db0efad6b41253d00c371ab174",
        "trial_08.jsonl": "1ede82a4e40399263f5e10466c6f4e026f7779a44f52fddd8cfe83ce89bb2afd",
        "trial_09.jsonl": "4569f3d1e578b73460ffe1616a181140adb61bcbb4aa8943b9a210e0e650ff85",
    },
    "falsify_tank_band": {
        "report.json": "ce9f5d0e5acab9a0191b8225172646c3cb52ce2f438ec8a5a4124441949de387",
        "stats.csv": "55638945285fd229d52525c20729ffce05a6ac48acf819e26bac1da805e9978c",
        "trial_00.jsonl": "07a0136ffd762e3113aa0d265e845c32e39ec4812615487b6ec52eb275346dcc",
        "trial_01.jsonl": "6d55c6c1806db4356a7640b07f76c736099e91ca91cf5b76a069dbb9205f1d34",
        "trial_02.jsonl": "cd37839a094d9357189cce3748219c6a1bdfe17de1bedb78143c8dd293d1fb46",
        "trial_03.jsonl": "a15a1065ee42e1125dea02d7215bfbc05bd97c2337c644a19e992acbed385e86",
        "trial_04.jsonl": "e390b917afb96d8534e4e7055620e40222cac6f9e1d8a3966f378527f497ebec",
        "trial_05.jsonl": "4bb6d3699c9150c9b81553a72a44b65670d6beee6aeb1a274e17f71bae2232df",
    },
    "falsify_tank_long": {
        "report.json": "87eedd6d33181c3bd99306b20f3b1959b566fe6f3256c6f288564607dbd396aa",
        "stats.csv": "2201364a8cfc7b005b992f07199e62b00c829ddee29931c623c9e9b561889598",
        "trial_00.jsonl": "9affed044f497ac2066084cef185cdbc22af08e3191441a5c5a421ec2e39beb0",
        "trial_01.jsonl": "5502108b57b1af2b223512cf4d4f0abe24c67d914ba9820d52c06cf76a1471b4",
    },
    "falsify_tank_long_fir": {
        "report.json": "8fdea60a0e9e1c9d9537d65aab998b5d52847eb8aa2e48927c7aab4e318be47a",
        "stats.csv": "2201364a8cfc7b005b992f07199e62b00c829ddee29931c623c9e9b561889598",
        "trial_00.jsonl": "4636af57eb4c6403880298909f564d9ee3cde38f6f543ac753a7a453ea8006c6",
        "trial_01.jsonl": "79c5cf6b5459e97359f2802a0649b41f289da7d44bcd5901b1c258c7b381beba",
    },
    "falsify_tank_long_linear": {
        "report.json": "e9a4ef67e9750f810ad07a3684e6f037321bffd8e4a87230082c5027915e3f58",
        "stats.csv": "2201364a8cfc7b005b992f07199e62b00c829ddee29931c623c9e9b561889598",
        "trial_00.jsonl": "a258a4a80e1079b6619221b66ef243a14326bb0b22d565dff2fe0654c44acc84",
        "trial_01.jsonl": "e39792d04d6c759c9df7ca963cce137ed68598c496ac453a1c0472e764681684",
    },
    "falsify_tank_random": {
        "report.json": "98e28b291e138c07e85bea411e0779eee40fd9be29e858139b412717dd4ab629",
        "stats.csv": "3e99de350913147ac1806a25a5ab5f12dabc105f19d92670dba1ca60d9120d32",
        "trial_00.jsonl": "62cd813ab49481ac7e846678762b5538f30c0e0c44d5a3d74bace933df3e5c20",
        "trial_01.jsonl": "f6bfe4ff40f7dc47226a19863831305bda08f1dff7af839e270adc2b5b757427",
        "trial_02.jsonl": "675e3b59af8cda6cf83bb71bfad98875791c45e255ee95b1e194d2d2590ea441",
        "trial_03.jsonl": "167dbc34512a816d360677e1429b3af4344ffe3eed182b98628eca60c760aaa7",
        "trial_04.jsonl": "2e90061d0e8c92dfbcea2c738b7595e71c3540fbde2643249540163828187e7c",
        "trial_05.jsonl": "d3c5f44c4d80edb9de608198086b07aa4080fad7710534a51d5385e6f328cbc7",
        "trial_06.jsonl": "cd3542bd146f97eca722180967d198e40ca82e0a6cd9a3427629d0cd32301fc7",
        "trial_07.jsonl": "780a4cdcb63a119dc4a1eed348777f8ba385e9568932d96af9e639768aa1dcb1",
        "trial_08.jsonl": "d273bd21e6bb5163833c2fa4ea690ec47cb95180c392db14a6f87b967970efaf",
        "trial_09.jsonl": "4dc4cac25f670cb15eaeafd69a7a979569e17e9ee5386aaecfcc2fd23aba180e",
    },
}


def load_config(name: str) -> ExperimentConfig:
    base, overrides = DERIVED.get(name, (name, {}))
    raw = parse_config_text((CONFIGS / f"{base}.cfg").read_text(encoding="utf-8"))
    raw.update(overrides)
    return ExperimentConfig.from_text("".join(f"{k} = {v}\n" for k, v in raw.items()))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name: str, tmp_path: Path) -> None:
    config = load_config(name)
    run = run_compare if config.kind == "compare" else run_falsify
    run(config, tmp_path, quiet=True)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN[name]
