"""Golden digests of the full CLI pipeline's outputs.

C10 only checks that two runs agree with each other; this test pins what
they produce, so a refactor cannot change a result silently.  It runs the
same pipeline as C10 (``run_pipeline``) and compares the sha256 of every
output file against the pins below.  A change that is meant to alter an
output updates its pin here and says why in CHANGES.md.
"""

import hashlib

from test_acceptance import run_pipeline

FLOWS = (
    "timestamp,prefix,bytes\n"
    "100,10.0.0.0/8,5000\n"
    "3700,10.1.0.0/16,300\n"
    "7300,10.0.0.0/8,42\n"
    "oops,10.0.0.0/8,1\n"
)

PINS = {
    "concentration_week.csv": "08a4f9ebfe9248089f0affbb1c9cc4e067d5da8c96b1e73361906fda8a33c830",
    "cv_bins.csv": "56c494f0ac15f82806033b55f972962e0d8bae619d5235b63297d3976f8a6f3e",
    "evaluation_summary.json": "b08761a001cdfdb732de2cc82abf9981fcf9b09c39b3a9700a2cbf93192b1b43",
    "grid_summary.csv": "af32b962684fff8db8c09c082eb36e0fac2e3c218449c7a3b084f93d8c967732",
    "grid_summary.json": "f4e1640864037d2ba8895bc373ba2b316d31a7bf56f36ccf54ea04dcf7b9c7f5",
    "hours.csv": "f9718e9e935a56e59c27c65c4047abb16dff5a848b8832333ac94faa9a3e847e",
    "icp_bins.csv": "747b66c08416976acdda498b2531ce538163d0db164459339f7fb8ab8be2a862",
    "ingested/ingest.json": "3a90b905260ce225683cda8702accb773ee37af0033638e14340bfb0d2c12dc3",
    "ingested/matrix.csv": "ba5831a211034cc8c883f68b0daec94dd746cdab02957b5d82415c4b8db2de9d",
    "ingested/matrix.json": "fa46a94378e7ca6a703f79b575acf0409f73c24b1a435105ef6e420bd265b55e",
    "matrix.csv": "9696d94ca7ff74a43230d82f4291d63934f2b242a6fca6f756af6d1d2ff01e44",
    "matrix.json": "b8e09fcb1619748005cbf2b6fb98096ca1b68842e9249c5f98e08aba27c75c81",
    "np.csv": "724b28007b194045e5353309ab4cbc3c6fbbd9ac4084b2309a0b78ba41655189",
    "np_summary.json": "735fbb363bbf76f4d5f89ef040658c80a3c850f614b0c585dde84860d3c0213c",
    "prefixes.csv": "23ad88a6c6f40cd5a973d6beb43935e99250db8f4fae3373520b5325fa78c36d",
    "probe_meta.json": "4ba8084a8fb464a9131f74c2e0bfa39407d729baf0e52112545c59b453906dae",
    "probes.csv": "e5640e3dbbc7a5001d1b62b2d21867a918e1d02c58d773c4f4bb03f0cd04ee35",
    "report_core_presence_L1.csv": "3c6fe67d3a5058a2bfa594dfe3d1a8149997d918f98afb50d744992b52b5e9e6",
    "report_core_presence_L12.csv": "45c546cd22934b699312aa1270184ae0561c682a0e5dcdf14bea3ae76355dbc0",
    "report_core_presence_L168.csv": "230a089db626bcbfbadead22458a8751f6f54b4a53853373e6bb4361908dc2b3",
    "report_core_presence_L24.csv": "59a7d93ff9212e17b767ab563ee6164f6bcc257bacad300ca30bbe4831ea0687",
    "report_core_volume_L1.csv": "426512b9bf9804f3cfd37de226b4353b443397244a211dbd819244c707291d14",
    "report_core_volume_L12.csv": "c44386d3c2cbd63005db27b9b1bc5070ee9a908f22d36a6b587253171aa76b00",
    "report_core_volume_L168.csv": "068ce3ec8230df22bbd305c069432316e7eec0e19f02e8590f71e6167215567e",
    "report_core_volume_L24.csv": "a082b2b18a808fbc602102a18fe278cbc88e4a12689ccdbc0f52a93bba5d3350",
    "report_gm11_L1.csv": "baa047bcb7162104fd511ca32f9c67e6b38d1920fcd2ce24035f190fc507b5ce",
    "report_gm11_L12.csv": "4506ce9a6a2f60c9378a1c3f2616e9f70fc57129aa386f51f781c715e8e377ea",
    "report_gm11_L168.csv": "5facf9270cf95d5e05b3bc7deaa5deeaa057ea282f512723fc219892515c4466",
    "report_gm11_L24.csv": "f2e4993b306e7a55a9374283d9bdde8f11e0ce1892dd2ea756d65934455d671f",
    "report_mean_volume_L1.csv": "baa047bcb7162104fd511ca32f9c67e6b38d1920fcd2ce24035f190fc507b5ce",
    "report_mean_volume_L12.csv": "8eb1fc3de8063ec50a3a2d1640681866e5731227f28a6a8bc5e8cd81fe2d0731",
    "report_mean_volume_L168.csv": "d71dbb1a9f0397b8022bcb2a36be080b2f5da0ca113f74cba14ff3f79a7717b0",
    "report_mean_volume_L24.csv": "7dae3b193fbeba168a32fcbbe8d426fdb5ad95fe6d136fcc9e91ae01f4719449",
    "selection_core_presence_L1.csv": "3ec464f599a46379b86acec4ad1573a87aafaad14f7ac128a0b65c4ee1e001ae",
    "selection_core_presence_L12.csv": "76772818ef4b345fe2fab740133143513cae9551cbf918ef40bccf44d5f5271d",
    "selection_core_presence_L168.csv": "6e955aad0ced5cc88fedc701731406bbf65ecd5f855b07cc7ae210db5dd8e38b",
    "selection_core_presence_L24.csv": "7d5a7b0b8dfc4d4e0bfdae3e02c8806b87d16c444a9f7bf1bf31e614ec9e9fce",
    "selection_core_volume_L1.csv": "154d4840287cd06cbae16510a9ae34ea6879cbd2d7958a3a4b86fdf4156c7f25",
    "selection_core_volume_L12.csv": "7d5e5bfb6f5171de98769ee2bf68af355b9ab110accd5ce2ac24fa30f529f415",
    "selection_core_volume_L168.csv": "76bcc0f4cd7711d5878a80ff064c9b022eaea634450dd174a849ef3565f8436c",
    "selection_core_volume_L24.csv": "20ded031a586f139940606a8e4b71eddffe93731b30466911666efad5c47b411",
    "selection_gm11_L1.csv": "f7afcedefa2e1478d1b7d1b4cac7194b60c7c118f38844de10c937dd61a095f1",
    "selection_gm11_L12.csv": "82ea4aca1d6ef1a13dc33b69342f39ff20f2f3d0f41831c66aff888408301ba2",
    "selection_gm11_L168.csv": "1c0570d884c6e1da6e2e011b7ac29991d5ec5b8603f95951bbc3fb6d3744a83f",
    "selection_gm11_L24.csv": "5388a875631aedd84f5af872f208c9005fd2cea508de30cf060a600883a9adb6",
    "selection_mean_volume_L1.csv": "c92f71cd61c8f1edb302845a691762c6ded1755a974de3f41511e7a67de3359c",
    "selection_mean_volume_L12.csv": "0e4d956133d9f8fc4d4e607452e054dec208cd3b0af697280706bd5648d4e8d6",
    "selection_mean_volume_L168.csv": "d23cb8d05e03d8408377e8fbae6ee7fcf4cfa725fff1a39a1d26f39b1bdf4826",
    "selection_mean_volume_L24.csv": "310942c068700f7e32552efba07cc8e8fdde5f748d86ef5694a4e7689b4485c1",
    "summary.json": "209edbddf19aee449791b6af6e8feb2145a7d60b35224b37385680e4de99613b",
    "synth.json": "d0fb9612fb9cc57b336f64f3e5dbbaf3f478f1f58a7dece15249b27aa4079489",
}


def test_pipeline_outputs_match_pins(tmp_path):
    flows = tmp_path / "flows.csv"
    flows.write_text(FLOWS)
    out = tmp_path / "out"
    run_pipeline(out, flows)

    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert sorted(digests) == sorted(PINS)
    changed = sorted(name for name in PINS if digests[name] != PINS[name])
    assert not changed, f"outputs differ from their pins: {changed}"
