"""Time muskatlab set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON

Prints one JSON line with the seconds spent importing the package (numpy and
scipy included), validating the config with SimConfig.from_dict, and
building the grid and the initial interface state.
"""

import json
import sys
import time


def main(src: str, config_path: str) -> None:
    with open(config_path, encoding="utf-8") as handle:
        obj = json.load(handle)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import muskatlab

    t1 = time.perf_counter()
    config = muskatlab.SimConfig.from_dict(obj)
    t2 = time.perf_counter()
    grid = muskatlab.make_grid(config.n_x)
    muskatlab.InterfacePair(config.f0.build(grid), config.h0.build(grid), config.params.d)
    config.b.build(grid)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "state_s": t3 - t2,
                      "total_s": t3 - t0, "module": muskatlab.__file__}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
