"""Refactor guard: the command line's stdout and exit code, byte for byte.

Each probe runs :func:`curvelab.cli.main` in process and compares the
sha256 of everything it printed, and its exit code, with the digest in
:data:`PROBES`.  The set covers every subcommand, the error documents of
``classify``, ``intersect`` and ``triple``, and all seven ``verify`` suites
at their defaults.  Its inputs are written by ``gen`` into a temporary
directory (``{d}`` in a probe), so no output names a path; beside them
goes the standard inventory of the Loch Ness depth 4 truncation at slope
bound 3 (106 curves), whose graphs write each curve on many edges.

A change meant to keep the outputs must leave every digest as it is.  A
change meant to alter an output replaces that digest and says why.
"""

import hashlib
import io
from contextlib import redirect_stdout

from curvelab import build_truncation, curve_inventory, format_ref
from curvelab.cli import main

INPUTS = {
    "l4.json": "gen --model loch_ness --depth 4",
    "lad3.json": "gen --model ladder --depth 3",
    "ct3.json": "gen --model cantor_tree --depth 3",
    "s21.json": "gen --genus 2 --boundary 1",
}

# file name -> (model, depth, slope bound) of a curve_inventory list
INVENTORIES = {"l4inv.txt": ("loch_ness", 4, 3)}

# (argv, exit code, sha256 of stdout)
PROBES = [
    ("gen --model loch_ness --depth 4", 0,
     "d574271ae876fa74ea2806184f63f6b8ccfbd4f19b9712595c3bff5585b3fddb"),
    ("gen --model ladder --depth 3", 0,
     "75f877cbe2f6792179138424d10801f59f19ef88d2246dc91af04a7fa9020941"),
    ("gen --model cantor_tree --depth 3", 0,
     "9c58a836128b63a058978df3b0c2e52aa9e6ff553daf7ab8954cd1fee168ca5d"),
    ("gen --genus 2 --boundary 1", 0,
     "85455ab98c565c316eab8c7b0146a08ad95e0840e2e0a5558f4d66cae325e20a"),
    ("gen --genus 0 --boundary 5", 0,
     "bb812a05e0f47e3dfa3569108f5cd2d74cf999ef4a9553401c4f40132d4e3464"),
    ("gen --genus 3 --boundary 0", 0,
     "47cc508a07438af11db77030edf3d46815a751246b101fc0502064c5a46e9932"),
    ("gen --genus 1 --boundary 2", 0,
     "225d45dbb6bb1c85311371d069fe1c2120c7a6e719207863ea988a6e0629e9eb"),
    ("gen", 1,
     "e8891f31192ab05f220c88a478ad491de64ad00c4f35358b5ade4c5a3d027f4b"),
    ("gen --model ladder", 1,
     "7319e63c9887be3fc11b12adf1b7a8608c802e0dd5bf40efb265decf30a50f21"),
    ("gen --genus 0 --boundary 2", 1,
     "62520eb22db00e7133d26c86cabed7211f18f08940501a17397bb77db1504242"),
    ("gen --model loch_ness --depth 0", 1,
     "9471776de7733b4a0795ec1ab4d616f93c4ceef6fc9d56c71ebc82b26a530333"),
    ("validate --in {d}/l4.json", 0,
     "1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328"),
    ("validate --in {d}/s21.json", 0,
     "1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328"),
    ("classify --in {d}/l4.json", 0,
     "909f471e385e9efa78dcffd3edecdfd83d80f21ea90dabcd9535937b07611642"),
    ("classify --in {d}/ct3.json", 0,
     "69b8d57a84538f80feffe8e491733d0fe60ef04129ea85bf8d12c63eed30ddc4"),
    ("classify --in {d}/s21.json", 0,
     "fbc0f3f366c67ff973bad6cf73445b23ae863692722e0c3ce9aadc84dac2db75"),
    ("classify --in {d}/l4.json --curve c2", 0,
     "101a37a8a19ed26e51112eeb6767e440a3f2a476b99634d51d7ad418f2884810"),
    ("classify --in {d}/l4.json --curve zz", 1,
     "c28a063dedb9abf40e2aca5488077f517d55ba3c26ae3193ee9c54c564c3ce65"),
    ("classify --in {d}/l4.json --curve c4", 1,
     "b9e7a5e4b4171bbf4ae5bedc1016953ae75eb2d50083a7f0e57fcfcc365587a8"),
    ("adjacency --in {d}/l4.json", 0,
     "adcfef31b959cd20de40ed35efa257110a4f1828be8217d78b949033d80c7b66"),
    ("adjacency --in {d}/lad3.json", 0,
     "e4e4360a1c7252b43b21bdf69ed794e531cba11591d318bf515c2004adcc3e0f"),
    ("ends --in {d}/l4.json --depth 1", 0,
     "51f15770cc1e706c687d7fa0a963766906dce0590cd161042c650f301b995efd"),
    ("ends --in {d}/l4.json --depth 1 --graph curves", 0,
     "2e73ee67a441de76e62a904762db9ad9e19738c76b936df7f67f4d2c58c489af"),
    ("ends --in {d}/lad3.json --depth 1 --stride 1", 0,
     "51b0abaa0ee11d8faec73837e2ae8278c5eb5ccccfd1410d7b78bb76d1fa7acf"),
    ("ends --in {d}/ct3.json --depth 1", 0,
     "f402a974cd30d3225731c1c2852cb82f00471c156eddfa82f1e24985126872df"),
    ("ends --in {d}/l4.json --depth 1 --base cp1", 1,
     "deeb7cc6fd88abcbd839d0fbb4b5587750ecf2c33ac9c8c3f6389b888517ee91"),
    ("ends --in {d}/l4.json --depth 5", 1,
     "56f5033b6534dced2d62d466e5d6157e114c88497ed8f1aeac9a458262985447"),
    ("intersect --in {d}/l4.json --a chain:h0:h1:c1,t1 --b pants:c1", 0,
     "0990ba51bcf2ce6001aabb263f19024fb3da3f383c4ff57b81c1c943fe95a024"),
    ("intersect --in {d}/l4.json --a win:c2:1/0 --b win:c3:1/1", 0,
     "8b837af590f7b8f94d5e2937c1a4ed4d60a2e10ff1d27ccaaa1caa541f57a8d7"),
    ("intersect --in {d}/l4.json --a win:c2:1/0 --b win:c2:2/1", 0,
     "fc750abe2595f9fd453306502f5621990843c3257edd048ed6efa52b343609ee"),
    ("intersect --in {d}/l4.json --a pants:zz --b pants:c1", 1,
     "c28a063dedb9abf40e2aca5488077f517d55ba3c26ae3193ee9c54c564c3ce65"),
    ("intersect --in {d}/l4.json --a bogus --b pants:c1", 1,
     "efb5ae73798b8f2fa9a7af5024e24badc2b84d21e249230f365e3db98dfb21c7"),
    ("intersect --in {d}/l4.json --a win:c2:0/0 --b pants:c1", 1,
     "1aaa0762aca4015057a5743985f47f6ea0d51ff7d13adc37781b962ce2314514"),
    ("triple --a 0/1 --b 2/5", 0,
     "701d29407821c3e85315207958f7d7b329ed9307c5cceecbf27040049652dd31"),
    ("triple --a 0/1 --b 1/2", 1,
     "993a14e7a775fce73b6fb3dabfa0efb0538f43b33da60bb8d5950f67771d9e90"),
    ("triple --a 1/x --b 1/1", 1,
     "a59f118652606c1dfdc2f7de27c3a25b98c6fc784c09825c7884fc75b9f5433c"),
    ("triple --a 0/0 --b 1/1", 1,
     "bc6f70531ae54b6f0acc307548a9fa5cd586e65e0f912ee07e0f9eba8dbf7efb"),
    ("sch04 --a 0/1 --b 1/0", 0,
     "677f19946beff49555fe33733300c5001d5a847b1dcb2aeaddb8f14fb97a3cc7"),
    ("sch04 --a 0/1 --b 1/1", 0,
     "47c7f4f64e5afd92045a9e09d88556c96d081711397bfc0d0215cc567c9a17ba"),
    ("sch04 --a 100/1 --b 101/1", 0,
     "a4a423ea078f4e7362ee4b6b1ad8e454750c27458dcb431c0f0bbad2d5e34f6b"),
    ("graph --in {d}/l4.json --inventory pants:h0,pants:h1,chain:h0:h1:c1,t1 --mode g", 0,
     "9e16497767caedd4891317cf4ae965382ea243a660c0a2a1c4fb81e7cd3c89f9"),
    ("graph --in {d}/l4.json --inventory pants:c1,pants:c2,win:c2:1/0,win:c2:1/1 --mode c", 0,
     "9a37fad9db88032f64fe62b11c2873ac469fc245ab04099d4b7bdbfa82b1e277"),
    ("graph --in {d}/l4.json --inventory pants:c1,pants:t1,win:c2:1/0,win:c3:1/1 --mode n", 0,
     "5cbf0b050da89f7f30d84a8e107f93f13f9c0873d498c87b2c4bf486a16e31de"),
    ("path --in {d}/l4.json --from h0 --to h3", 0,
     "ccd39b162ea9c6a072e641d4913fcadc287acb9d5442c4637a63de7bd6737fbd"),
    ("path --in {d}/l4.json --from h0 --to zz", 1,
     "c28a063dedb9abf40e2aca5488077f517d55ba3c26ae3193ee9c54c564c3ce65"),
    ("counterexample --samples 40", 0,
     "1537a4a20dabb53eb9cc89134e1fdc837832b038dd69449fc67d698abe93d3e6"),
    ("counterexample --gadget s12 --samples 40", 0,
     "b61734499abc9866577594e45afd0f31d06c9477319c07aa0019031e519112b5"),
    ("counterexample --gadget cantor --samples 40 --seed 7", 0,
     "92279f733b8d9f8d138cb6bbbbdb135431f1df2d95095cf55758fb10642e830a"),
    ("counterexample --alpha h1 --samples 10", 1,
     "dd29fc08b208ce5984e55ee3b5b6deae170acb913b5b2d61ae56fdb7fa953e5e"),
    ("verify --suite cutpoints", 0,
     "fa52b23e22a3ecd36c442ba07a7acd6ed905f94529a882c8f1fb8ae5cb05f360"),
    ("verify --suite ends", 0,
     "7d46f45ee552210f39a23cace79df025e86b629f6b2cec22525eeb6c0db5fd4c"),
    ("verify --suite triples", 0,
     "cf143294226dd2c0299f1bd9ab58890d4b29850aed8a47dff27d4f63498eaa20"),
    ("verify --suite sch04", 0,
     "aa1436080705074df6de6e1ccfcefd0e9902c46c6b2dc76d18ed0b4b839d61cf"),
    ("verify --suite dtcoords", 0,
     "fe8896765cd3ebe4ef2ce07f07d7fa1dc09ac294c4f425e391b2637039c5c1a4"),
    ("verify --suite diameter", 0,
     "81e6acda2b9275da116a3bc74f59739edf2e63b358f24824bffb0a3eb8e2583a"),
    ("verify --suite counterexample", 0,
     "de4d726d118c4d972c65987553c6a5030439185de7c02d9621d0683fa798a125"),
    ("verify --suite triples --bound 12", 0,
     "b220a0b648708b7475f402f7718451c10598a518a8ee33286f4ecb431e5762b3"),
    ("verify --suite triples --alpha c2", 1,
     "b43a00ed43b41c697142c9f79dfe1f7a8f0801cbc1382b853188c77c583a78ed"),
    ("verify --suite diameter --trunc-depth 1 --samples 2", 1,
     "0a46c56ed3638f3353da6373f8a089400cf44f5867ba899fd54e43055bb27854"),
    ("verify --suite counterexample --gadget cantor --samples 40", 0,
     "afb48bb2cd29b3ea8d82a7f8f58d3d733214ce88f966fcf7df057f62b5e76c7c"),
    ("verify --suite counterexample --gadget s12 --samples 4", 1,
     "7f756d47f2efc2f71cc4ffa66e5bb917f5e08633ab0c1b79a7ebbe9d47ca0df0"),
    ("counterexample --trunc-depth 6 --alpha c3 --depth 2 --samples 30", 1,
     "7c8c538e64b83bb7cad0db6192e099c7e3fadbad56b32e50ed2fb3837e516a8e"),
    ("ends --in {d}/s21.json --depth 1", 0,
     "1e6ba551e6d39988e4fdb35f0be198a3e140979d7b30ed77b3e87be8ea2c9ba4"),
    ("counterexample --trunc-depth 8 --alpha c3 --samples 30", 0,
     "e134d015d139baf8982005642995fd5340cf0ac8ba105a6dd6779331bde4663e"),
    # 4,230, 1,729 and 128 edges
    ("graph --in {d}/l4.json --inventory @{d}/l4inv.txt --mode c", 0,
     "ffb8836f8d7e07b3e3bf6984d55fcc93c8cdaf3fb29a61d92e5d269fb22babcc"),
    ("graph --in {d}/l4.json --inventory @{d}/l4inv.txt --mode n", 0,
     "aa74dd57712caacd5ff2fb45aa4935bb5ad8e5530a545a4aae10d0224e662a8b"),
    ("graph --in {d}/l4.json --inventory @{d}/l4inv.txt --mode g", 0,
     "a540bcb22a08fd58374c629e2c9c2f9de86826f68307a339ed7b3307653e49a4"),
]


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_cli_output_matches_the_pinned_digests(tmp_path):
    for name, argv in INPUTS.items():
        code, _ = run(argv.split() + ["--out", str(tmp_path / name)])
        assert code == 0, argv
    for name, (model, depth, bound) in INVENTORIES.items():
        refs = curve_inventory(build_truncation(model, depth), bound)
        (tmp_path / name).write_text(",".join(map(format_ref, refs)))
    mismatched = []
    for argv, want_code, want in PROBES:
        code, out = run(argv.format(d=tmp_path).split())
        got = hashlib.sha256(out.encode()).hexdigest()
        if (code, got) != (want_code, want):
            mismatched.append((argv, code, got))
    assert mismatched == []
