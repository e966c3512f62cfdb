"""Command-line front-end.

  condtest run       one tester, one or two distribution specs, T trials
  condtest sweep     query scaling across a domain-size grid
  condtest dist validate   check a distribution spec file
"""

from __future__ import annotations

import json
import sys

import click

from .distcore import load_spec, tv_distance, uniform
from .errors import CondtestError
from .harness import (
    ExperimentConfig,
    TESTERS,
    run_experiment,
    scaling_sweep,
    write_csv,
    write_json,
)


@click.group()
def main():
    """Conditional-sampling distribution testers and their harness."""


@main.command()
@click.option("--tester", required=True, type=click.Choice(sorted(TESTERS)))
@click.option("--dist", "dist_path", required=True,
              type=click.Path(exists=True), help="Distribution spec file.")
@click.option("--dist2", "dist2_path", type=click.Path(exists=True),
              help="Second spec (target or second oracle).")
@click.option("--eps", type=float, required=True)
@click.option("--trials", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--profile", default="desk", show_default=True,
              help="Preset name or JSON profile file.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the full report here.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
def run(tester, dist_path, dist2_path, eps, trials, seed, profile, out_path, fmt):
    """Run one tester for T seeded trials and print the aggregate."""
    try:
        cfg = ExperimentConfig(
            tester=tester,
            spec=dist_path,
            spec2=dist2_path,
            eps=eps,
            trials=trials,
            seed=seed,
            profile=profile,
        )
        result = run_experiment(cfg)
    except CondtestError as e:
        raise click.ClickException(str(e))
    if out_path:
        if fmt == "csv":
            write_csv(result, out_path)
        else:
            write_json(result, out_path)
    doc = result.aggregate.as_dict()
    doc["profile"] = {"name": result.profile_echo["name"],
                      "overrides": result.profile_echo["overrides"]}
    click.echo(json.dumps(doc, indent=2))


@main.command()
@click.option("--tester", required=True, type=click.Choice(sorted(TESTERS)))
@click.option("--n-grid", required=True,
              help="Comma-separated domain sizes, e.g. 1024,4096,16384.")
@click.option("--eps", type=float, required=True)
@click.option("--trials", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--profile", default="desk", show_default=True)
def sweep(tester, n_grid, eps, trials, seed, profile):
    """Mean query totals on uniform instances across a size grid."""
    try:
        grid = [int(x) for x in n_grid.split(",") if x.strip()]
    except ValueError:
        raise click.ClickException(f"bad n-grid {n_grid!r}")
    if not grid:
        raise click.ClickException("empty n-grid")
    try:
        res = scaling_sweep(tester, grid, eps, trials, seed, profile)
    except CondtestError as e:
        raise click.ClickException(str(e))
    click.echo(json.dumps(res.as_dict(), indent=2))


@main.group()
def dist():
    """Distribution spec utilities."""


@dist.command()
@click.argument("spec_file", type=click.Path(exists=True))
def validate(spec_file):
    """Check a spec file and print its exact distance to uniform."""
    try:
        d = load_spec(spec_file)
    except CondtestError as e:
        raise click.ClickException(str(e))
    doc = {
        "n": d.n,
        "total_mass": d.total,
        "tv_to_uniform": tv_distance(d, uniform(d.n)),
    }
    click.echo(json.dumps(doc, indent=2))


if __name__ == "__main__":
    sys.exit(main())
