"""Golden digests of the full CLI pipeline's outputs.

C10 only checks that two runs agree with each other; this test pins what
they produce, so a refactor cannot change a result silently.  It runs the
same pipeline as C10 (``run_pipeline``) and compares the sha256 of every
output file against the pins below.  A second run pins ``probe-synth``
and ``simulate`` at the benchmark's probe-day size.  A change that is meant
to alter an output updates its pin here and says why in CHANGES.md; on a
mismatch the failure lists each changed file with its new digest, as a line
of its pins.
"""

import hashlib

from prefixcast.cli import main as cli_main
from test_acceptance import run_pipeline

FLOWS = (
    "timestamp,prefix,bytes\n"
    "100,10.0.0.0/8,5000\n"
    "3700,10.1.0.0/16,300\n"
    "7300,10.0.0.0/8,42\n"
    "oops,10.0.0.0/8,1\n"
)

PINS = {
    "concentration_week.csv": "03c573de240e75664b8ec678f037165876feede0f438d6a7b07ccf14065a76a5",
    "cv_bins.csv": "a7682a640e1db3825ddaece2803503fee6eca126b8b091b9258773757313fe07",
    "evaluation_summary.json": "6ab232275cceeca10fa2192aaacbbd1133a221f43168eaff1eb1e3e908ba3a10",
    "grid_summary.csv": "da040c343270924865d1a35446137e0012f9d650dd4b7cea78fb85b13313cb7a",
    "grid_summary.json": "a838a0134d1d868251657fcc833696067d502676f977f696ea93d79d41c2e146",
    "hours.csv": "c840156ddd01f4f2bb3ae5743e8e018b6435a7b83f6b464d791b7d81c64e99c3",
    "icp_bins.csv": "e5b6826d274cb7307363c97cca86cdd1df89d79dbcc467c888f49388f9aaa730",
    "ingested/ingest.json": "3a90b905260ce225683cda8702accb773ee37af0033638e14340bfb0d2c12dc3",
    "ingested/matrix.csv": "ba5831a211034cc8c883f68b0daec94dd746cdab02957b5d82415c4b8db2de9d",
    "ingested/matrix.json": "3b601eae642229172a2a7827e7afafe531d1825db0679c3203d642bc1f57473d",
    "matrix.csv": "ebdb83de8e8448236b7a9951ec01d387706f25d37759c7ce633199919f35d510",
    "matrix.json": "25cf0a96a9f2d45299c043ada639043bba075e175d4f19e1191825caadf1c7ce",
    "np.csv": "5e2e792fa63a6edc35f23bd60055e9b9283fe0c050fdf76dbc499431d2a8202b",
    "np_summary.json": "54b700c696a9199957d66ccf2fda93b2d5abee92c99ac87fd015002aaceff4aa",
    "prefixes.csv": "209b0daba5e67f656b80b2f00bd3a84994d37d5557f5dbc15fb27026fb09e465",
    "probe_meta.json": "4ba8084a8fb464a9131f74c2e0bfa39407d729baf0e52112545c59b453906dae",
    "probes.csv": "fe3456e183650427fc6afb112ba785bbdc0385ed5cfcb5b5612e481a8de86727",
    "report_core_presence_L1.csv": "5359439922fb64d949e243b6ec0c4c49b87e4b34ccc86466a52dfbfe094016aa",
    "report_core_presence_L12.csv": "82cfe951d957963efb0868e855c95b6db8236bc120f01238f2e78794b9047e60",
    "report_core_presence_L168.csv": "6b579335fcbd70b38a06d1a6f6dc6c8c9d4fda51e4fc56cfd4a474c21e7aed7a",
    "report_core_presence_L24.csv": "0e702edc8ed225b4f2c502dfaab19f328e6fce810de68b20ffdd3fdcbcd19e28",
    "report_core_volume_L1.csv": "5359439922fb64d949e243b6ec0c4c49b87e4b34ccc86466a52dfbfe094016aa",
    "report_core_volume_L12.csv": "7f6c60e0d908a7f5a2a1c799b31b910004697c873f084a311f3515b3b67a4891",
    "report_core_volume_L168.csv": "ad76dd7cf2a86208961747a9ea5a58ed4bc8e735470a7084ff53b2cd8157a246",
    "report_core_volume_L24.csv": "559a3b27a1c60b99165d965b2cb0923a23ae29ac60c890a904cc425ca50bfba3",
    "report_gm11_L1.csv": "feba4467cdb6768413eda4b3736bce0f65ab29c3af017b2accd321c839328349",
    "report_gm11_L12.csv": "1bf843ee59fe9c739d987ed9a8ebcb038ee22f82bb4b55064e0fde7bce73e2fa",
    "report_gm11_L168.csv": "ded72ee8911ed17ea5a1b2677ee5f261ff24539ca2dc1b3c231512b47ebbefd4",
    "report_gm11_L24.csv": "3c9471bbb2448f029838ed2554a7827ffe2d141deb9b05969d5d28663a221497",
    "report_mean_volume_L1.csv": "feba4467cdb6768413eda4b3736bce0f65ab29c3af017b2accd321c839328349",
    "report_mean_volume_L12.csv": "a4e021805753c9ac2b6f8ba31a748ef5d8e6f8d8c549502f35c1d6a75579b2a2",
    "report_mean_volume_L168.csv": "17824e43213ba77fe1da895971af8ce8fbb692ac82e43cdc4f7a8526f20abbef",
    "report_mean_volume_L24.csv": "b38eab4c55008ae1ce118d6b3fadb6074849c5762c915cccd76b6fd5c9908461",
    "selection_core_presence_L1.csv": "3ec464f599a46379b86acec4ad1573a87aafaad14f7ac128a0b65c4ee1e001ae",
    "selection_core_presence_L12.csv": "76772818ef4b345fe2fab740133143513cae9551cbf918ef40bccf44d5f5271d",
    "selection_core_presence_L168.csv": "6e955aad0ced5cc88fedc701731406bbf65ecd5f855b07cc7ae210db5dd8e38b",
    "selection_core_presence_L24.csv": "7d5a7b0b8dfc4d4e0bfdae3e02c8806b87d16c444a9f7bf1bf31e614ec9e9fce",
    "selection_core_volume_L1.csv": "e84b4e621c687febda070d68c6cedc8d4deffa1b12cae99e0f5d733d7e3c41cc",
    "selection_core_volume_L12.csv": "fbc8b73f503def18dc02a03dae9783a308a52e70dc18549509b7089efe31fc3b",
    "selection_core_volume_L168.csv": "0e764cdc42142998ffd30959a7d76b941e52a90f5670dedf79e7fc15aa3583c2",
    "selection_core_volume_L24.csv": "d772461aaf9fb0d815528f4cbbe61bdfd11a090563dc80336fe69e2721e5d690",
    "selection_gm11_L1.csv": "de597f10f29dbef17e92657c20afa0b1d938689b331e640e55aca10ebc57e651",
    "selection_gm11_L12.csv": "148665b212939dba7d47e0999fe6a2ba253c396ff6bec5d5b5948ea304b6d700",
    "selection_gm11_L168.csv": "9ec3091a8494e291bff24ef258476c2aade68d820453d208a762567b164bc240",
    "selection_gm11_L24.csv": "5da8da9bfc8308d50ea395a0266aa0a524a9db65ea4c57209c68dba95fcf217d",
    "selection_mean_volume_L1.csv": "1d4fa755e558fda84df10d3fc334538af9bb7a8ac3149a333e182b422fb84791",
    "selection_mean_volume_L12.csv": "37283bcb71aed40474fee7d59f5d941e14ca611aef71c90a2b5ab0cae3e6f24d",
    "selection_mean_volume_L168.csv": "81e19810c72eab8b758d773061d62dcaa5c1d89c3503a8d68f209ddd9e7ba0da",
    "selection_mean_volume_L24.csv": "adc386cc1eff5da675d14a08f70434bd5ae4d9c1ddd2873251a8e6de274389b5",
    "summary.json": "5a581f0cc45df772d70174e321a921cf3a0993d6799f1319366f65c188f0b017",
    "synth.json": "d0fb9612fb9cc57b336f64f3e5dbbaf3f478f1f58a7dece15249b27aa4079489",
}


# One day of probes at the size the benchmark's probe-day workload runs:
# 362 rounds of 10 prefixes x 4 transits, enough that summing in another
# order moves the last bit of an NP mean, where the pipeline's log of
# 5 prefixes x 2 transits over 17 rounds does not.
PROBE_DAY = ["--prefix-count", "10", "--transits", "4", "--duration", "86400",
             "--interval", "240", "--jitter", "0.3", "--loss", "0.02", "--noise-std", "1.0",
             "--regime", "T4:90:180:1.5", "--seed", "42"]

PROBE_DAY_PINS = {
    "np.csv": "9248b936d4664ea0f602ae53c86d4502506ed6137f18d451a83674823fc58f93",
    "np_summary.json": "9d51b2830dd8aa9b41f01e336e206d4ce039d95fd3924f1870023ab56575b67d",
    "probe_meta.json": "561659af892ba69387cdd388d6eadde066a78eb9f6f190176df19c8c2c7b5704",
    "probes.csv": "52af5a8c177db2095f21dd3fec48de6450681a8f9ca0dbdb5fe6e4de948422ec",
}


def assert_outputs_match(out, pins):
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert sorted(digests) == sorted(pins)
    changed = [name for name in sorted(pins) if digests[name] != pins[name]]
    # each changed pin as a pins line, so a deliberate re-pin can be pasted
    repin = "".join(f'    "{name}": "{digests[name]}",\n' for name in changed)
    assert not changed, f"outputs differ from their pins: {changed}; new digests:\n{repin}"


def test_pipeline_outputs_match_pins(tmp_path):
    flows = tmp_path / "flows.csv"
    flows.write_text(FLOWS)
    out = tmp_path / "out"
    run_pipeline(out, flows)
    assert_outputs_match(out, PINS)


def test_probe_day_outputs_match_pins(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["probe-synth", *PROBE_DAY, "--out", str(out)]) == 0
    assert cli_main(["simulate", "--probes", str(out / "probes.csv"), "--seed", "42",
                     "--out", str(out)]) == 0
    assert_outputs_match(out, PROBE_DAY_PINS)
