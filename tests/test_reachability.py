"""Every function the package exports is reached by a command.

The test runs each of the six commands once on tiny inputs under
``sys.setprofile`` and checks that every plain function exported from
``riskcent`` was called.  Only the fixtures that build test inputs (the
README lists them) are exempt.
"""

import inspect
import sys

import riskcent
from riskcent.cli import main
from test_cli import (write_clique_plus_hub, write_corporate, write_k4,
                      write_returns)

FIXTURES = {"generate_complete", "generate_star", "generate_er", "relabel",
            "largest_component", "write_config", "save_returns"}


def test_every_exported_function_is_reached_by_a_command(tmp_path):
    exported = {name: obj for name, obj in vars(riskcent).items()
                if inspect.isfunction(obj)}
    assert FIXTURES <= exported.keys()
    names = {f.__code__: name for name, f in exported.items()}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            called.add(names[frame.f_code])

    edges = write_k4(tmp_path / "k4.txt")
    hub = write_clique_plus_hub(tmp_path / "hub.json")
    config = tmp_path / "exp.cfg"
    config.write_text("n = 8\ndensities = 0.6\nzetas = 0.5\n"
                      "replications = 2\nseed = 1\n")
    returns = write_returns(tmp_path / "returns.csv", months=7)
    memb, svc = write_corporate(tmp_path)
    runs = [
        # an edge list, on the default zeta grid
        ["centrality", edges],
        ["epidemics", hub, "--beta", "0.1", "--gamma", "0.5", "--tmax", "1",
         "--steps", "3",
         "--solvers", "exact,lee,lee-general,linearized,mean-field"],
        # a pair that crosses, so its heuristic columns count walks
        ["interlace", hub, "--pairs", "5,1", "--zeta-grid", "0.05:3:60"],
        ["experiments", str(config)],
        ["market", returns, "--zeta-grid", "0.1,1"],
        ["corporate", memb, svc],
    ]
    sys.setprofile(profile)
    try:
        codes = [main(argv + ["--out", str(tmp_path / argv[0])])
                 for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    unreached = exported.keys() - called - FIXTURES
    assert not unreached, sorted(unreached)
