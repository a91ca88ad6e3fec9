"""Command-line interface.

Subcommands: multiply (two signals -> four component WAVs + metrics),
convolve (signal x kernel -> convolved WAV + oracle comparison), shot-sweep
(accuracy vs shot count for one signal pair), selftest. Every run that
writes files also writes a manifest.txt capturing hashed inputs and the full
configuration so it can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import platform
import sys
import warnings

import numpy as np

from . import __version__
from .audio import (
    CONVOLVE_CSV,
    SWEEP_CSV,
    build_kernel,
    check_chunk_size,
    check_rate,
    check_seed,
    check_workers,
    csv_table,
    ensure_dir,
    normalize_for_encoding,
    read_signal,
    remap_for_listening,
    write_outputs,
)
from .encoding import SignalChunk
from .errors import DomainError, NormalizationError, QwaveError, ShapeError
from .pipelines import (convolve_plan, make_chunks, pointwise_multiply_state, process_chunks,
                        seed_scores)
from .sampling import SAMPLER, STANDARD_TEST_PAIR
from .selftest import run_selftest

MANIFEST_VERSION = 4


def _parse_shots(text: str):
    if text == "exact":
        return None
    try:
        shots = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shots must be a positive integer or 'exact', got {text!r}")
    if shots < 1:
        raise argparse.ArgumentTypeError(f"shots must be >= 1, got {shots}")
    return shots


def _manifest_text(command, inputs, entries, names) -> str:
    """manifest.txt's text: version and environment, `command`, input_<role> and
    input_<role>_sha256 per (role, path, sha256) in `inputs` (None hashes skipped), the
    entries, then `outputs`: the run's other file `names` and manifest.txt, sorted."""
    # the bit-for-bit promise holds for the interpreter and numpy named here
    lines = [("manifest_version", MANIFEST_VERSION), ("tool", f"qwave {__version__}"),
             ("python", platform.python_version()), ("numpy", np.__version__),
             ("command", command)]
    for role, path, digest in inputs:
        if digest is not None:  # a built-in kernel reads no file
            lines += [(f"input_{role}", path), (f"input_{role}_sha256", digest)]
    lines += [*entries, ("outputs", " ".join(sorted([*names, "manifest.txt"])))]
    return "".join(f"{key} = {value}\n" for key, value in lines)


def _add_common_flags(parser) -> None:
    parser.add_argument("--chunk-size", type=int, default=8,
                        help="samples per chunk, a power of two (default 8)")
    parser.add_argument("--shots", type=_parse_shots, default=None, metavar="N|exact",
                        help="shot count for sampling, or 'exact' (default exact)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; per-chunk streams derive from it (default 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="threads that process chunk ranges (default 1)")
    parser.add_argument("--normalization", choices=("assume-positive", "shift-scale"),
                        default="assume-positive",
                        help="how raw samples map into [0, 1) before encoding")
    parser.add_argument("--sample-rate", type=int, default=8000,
                        help="sample rate assumed for text-file inputs (default 8000)")
    parser.add_argument("--out", required=True, help="output directory")


@functools.cache
def _build_parsers() -> tuple:
    """(the qwave parser, {subcommand: its parser}), built once per process; parsing leaves
    them unchanged. They are the one source of usage, help and error text."""
    parser = argparse.ArgumentParser(
        prog="qwave",
        description="Amplitude-encoded signal processing on a statevector simulator.",
    )
    parser.add_argument("--version", action="version", version=f"qwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("multiply", help="pointwise product of two signals")
    p_mul.add_argument("signal_f", help="first input (.wav or numeric text)")
    p_mul.add_argument("signal_g", help="second input (.wav or numeric text)")
    _add_common_flags(p_mul)

    p_conv = sub.add_parser("convolve", help="circular convolution with a kernel")
    p_conv.add_argument("signal_f", help="input signal (.wav or numeric text)")
    p_conv.add_argument("--kernel", required=True,
                        help="built-in (identity, shift-K, moving-average-K, low-pass-K) "
                             "or a numeric file")
    p_conv.add_argument("--kernel-domain", choices=("auto", "time", "fourier"),
                        default="auto",
                        help="interpretation of a file kernel; a built-in runs in its "
                             "own domain, and naming the other one is an error")
    _add_common_flags(p_conv)

    p_sweep = sub.add_parser("shot-sweep", help="accuracy vs shot count")
    p_sweep.add_argument("--signal-f", default=None,
                         help="numeric text file (default: built-in 8-sample pair)")
    p_sweep.add_argument("--signal-g", default=None)
    p_sweep.add_argument("--shots-list",
                         default="10,100,1000,10000,100000,1000000,10000000",
                         help="comma-separated shot counts; 'exact' entries allowed")
    p_sweep.add_argument("--num-seeds", type=int, default=20,
                         help="seeds per shot count; medians are reported (default 20)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True)

    sub.add_parser("selftest", help="run built-in consistency checks")
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """The qwave parser's parse_args(argv), run by the subcommand's parser alone when argv[0]
    names one.

    The qwave parser hands such a subcommand's parser everything after argv[0] and refuses
    what that leaves over, so the Namespace, the exit code and every usage, help and error
    line come out the same; its own pass over argv, half the time of a parse, is skipped.
    Any other argv (--version, -h, none, an unknown command) goes through the qwave parser.
    """
    parser, commands = _build_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _cmd_multiply(args) -> int:
    check_chunk_size(args.chunk_size, "--chunk-size")
    check_seed(args.seed, "--seed")
    check_workers(args.workers, "--workers")
    check_rate(args.sample_rate, "--sample-rate")
    plan_f, rate, sha_f, record = _input_chunks(args.signal_f, args)
    plan_g, rate_g, sha_g, _ = _input_chunks(args.signal_g, args)
    if rate != rate_g:
        raise ShapeError(f"sample rates differ: {rate} vs {rate_g}")
    if plan_f.total_samples != plan_g.total_samples:
        raise ShapeError(
            f"signals differ in length: {plan_f.total_samples} vs {plan_g.total_samples}")
    ensure_dir(args.out)  # an --out that cannot be made fails before the run
    quad = process_chunks(plan_f, plan_g, args.shots, args.seed, args.workers)
    num_chunks, tail_padding = plan_f.num_chunks, plan_f.tail_padding
    del plan_f, plan_g  # whole-signal arrays the outputs do not read
    block = quad.channels  # fresh, so remapped and written in place
    remap_for_listening(block, record)
    wavs = [f"component_{key}.wav" for key in quad.components]
    tables = {"metrics.csv": quad.metrics_csv()}
    inputs = [("f", args.signal_f, sha_f), ("g", args.signal_g, sha_g)]
    tables["manifest.txt"] = _manifest_text("multiply", inputs, [
        ("sample_rate", rate),
        ("chunk_size", args.chunk_size),
        ("num_chunks", num_chunks),
        ("tail_padding", tail_padding),
        ("shots", quad.shots),
        ("seed", args.seed),
        ("sampler", SAMPLER),
        ("workers", args.workers),
        ("normalization", record.mode),
        ("normalization_shift", record.shift),
        ("normalization_scale", record.scale),
    ], [*wavs, *tables])
    write_outputs(args.out, tables, wavs, block, rate)
    print(f"multiply: {num_chunks} chunks x {args.chunk_size} samples, shots={quad.shots}",
          *(f"  {name}" for name in wavs), f"  metrics.csv manifest.txt -> {args.out}", sep="\n")
    return 0


def _cmd_convolve(args) -> int:
    if args.shots is not None:
        raise ShapeError("convolve runs on the exact statevector; --shots exact is the only mode")
    check_workers(args.workers, "--workers")
    # convolve draws nothing at random, so a recorded seed would describe a run that did not happen
    if args.seed != 0:
        raise ShapeError(f"convolve draws no samples; --seed must be 0, got {args.seed}")
    check_chunk_size(args.chunk_size, "--chunk-size")
    check_rate(args.sample_rate, "--sample-rate")
    kernel, domain, sha_kernel, padded_len = build_kernel(
        args.kernel, args.chunk_size, args.kernel_domain, "--kernel", "--kernel-domain")
    plan, rate, sha_f, record = _input_chunks(args.signal_f, args)
    num_chunks, tail_padding = plan.num_chunks, plan.tail_padding
    try:
        convolved, rel = convolve_plan(plan, kernel, padded_len, args.workers)
    except NormalizationError as exc:  # the kernel cannot be encoded, or overflows the oracle
        raise NormalizationError(f"--kernel {args.kernel}: {exc}") from None
    del plan  # whole-signal rows the outputs do not read
    tables = {"metrics.csv": csv_table(CONVOLVE_CSV, [range(len(rel)), rel])}
    inputs = [("f", args.signal_f, sha_f), ("kernel", args.kernel, sha_kernel)]
    tables["manifest.txt"] = _manifest_text("convolve", inputs, [
        ("kernel", args.kernel),
        ("kernel_domain", domain),
        ("sample_rate", rate),
        ("chunk_size", args.chunk_size),
        ("padded_length", padded_len),
        ("num_chunks", num_chunks),
        ("tail_padding", tail_padding),
        ("shots", "exact"),
        ("seed", args.seed),
        ("workers", args.workers),
        ("normalization", record.mode),
    ], ["convolved.wav", *tables])
    write_outputs(args.out, tables, ["convolved.wav"], convolved[None], rate)
    print(f"convolve: {num_chunks} chunks, kernel {args.kernel} ({domain} domain), "
          f"worst rel l2 vs oracle {rel.max():.3e}")
    print(f"  convolved.wav metrics.csv manifest.txt -> {args.out}")
    return 0


def _parse_shots_list(text: str) -> list:
    """Comma-separated --shots-list entries, each checked by the --shots rules."""
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            specs.append(_parse_shots(token))
        except argparse.ArgumentTypeError as exc:
            raise ShapeError(f"--shots-list: {exc}") from None
    if not specs:
        raise ShapeError(f"--shots-list names no shot counts: {text!r}")
    return specs


def _input_chunks(path, args) -> tuple:
    """(ChunkPlan, sample rate, sha256, NormalizationRecord) of a multiply or convolve input."""
    buffer, digest = read_signal(path, args.sample_rate)
    values, record = normalize_for_encoding(buffer, args.normalization)
    # the plan's rows may be a view of the buffer's samples, which then live as long as it
    return make_chunks(values, args.chunk_size), buffer.sample_rate, digest, record


def _sweep_chunk(flag: str, path) -> tuple:
    """(one chunk, sha256) of a shot-sweep input file; its errors name the flag and the file."""
    buffer, digest = read_signal(path, 8000)
    try:
        values, _ = normalize_for_encoding(buffer, "assume-positive")
        return SignalChunk.from_values(values), digest
    except (ShapeError, DomainError) as exc:
        raise type(exc)(f"{flag} {path}: {exc}") from None


def _cmd_shot_sweep(args) -> int:
    if (args.signal_f is None) != (args.signal_g is None):
        raise ShapeError("provide both --signal-f and --signal-g, or neither")
    if args.num_seeds < 1:
        raise ShapeError(f"num-seeds must be >= 1, got {args.num_seeds}")
    check_seed(args.seed, "--seed")
    shot_specs = _parse_shots_list(args.shots_list)
    if args.signal_f is None:
        chunk_f, chunk_g = (SignalChunk.from_values(v) for v in STANDARD_TEST_PAIR)
        inputs, signals = [], [("signals", "built-in")]
    else:
        chunk_f, sha_f = _sweep_chunk("--signal-f", args.signal_f)
        chunk_g, sha_g = _sweep_chunk("--signal-g", args.signal_g)
        inputs, signals = [("f", args.signal_f, sha_f), ("g", args.signal_g, sha_g)], []
    state = pointwise_multiply_state(chunk_f, chunk_g).state.amplitudes.reshape(-1, 2, 2)

    ensure_dir(args.out)  # an --out that cannot be made fails before the seed loop
    labels = ["exact" if shots is None else shots for shots in shot_specs]
    scores = []  # per entry: the median, min and max rmsd, then fidelity, over the seeds
    for shots, label in zip(shot_specs, labels):
        rmsds, fids = np.zeros(1), np.full(1, 100.0)  # the exact state's
        if shots is not None:
            seeds = [[args.seed, shots, i] for i in range(args.num_seeds)]
            rmsds, fids = seed_scores(state, shots, seeds)
        scores.append([f(x) for x in (rmsds, fids) for f in (np.median, np.min, np.max)])
        print(f"shots={label} rmsd={np.median(rmsds):.4g}% fidelity={np.median(fids):.6g}%")
    log10 = [None if shots is None else np.log10(shots) for shots in shot_specs]
    sweep = csv_table(SWEEP_CSV, [labels, log10, np.array(scores).T, args.num_seeds])
    tables = {"sweep.csv": sweep}
    tables["manifest.txt"] = _manifest_text("shot-sweep", inputs, [
        *signals,
        ("shots_list", args.shots_list),
        ("num_seeds", args.num_seeds),
        ("seed", args.seed),
        ("sampler", SAMPLER),
    ], tables)
    write_outputs(args.out, tables)
    print(f"  sweep.csv manifest.txt -> {args.out}")
    return 0


def _cmd_selftest() -> int:
    results = run_selftest()
    failed = 0
    for name, ok, detail in results:
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    return 1 if failed else 0


def _print_warning(message, *_) -> None:
    """A command's warnings.showwarning: one `warning: <message>` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # each warning the command raises, such as one per stereo input averaged to mono, is one
    # stderr line. A warning no filter names takes the action "always", so none is
    # deduplicated; swapping two attributes costs a call far less than catch_warnings'
    # copy of the filters, and the caller's filters are left as they are.
    saved = warnings.showwarning, warnings.defaultaction
    warnings.showwarning, warnings.defaultaction = _print_warning, "always"
    try:
        if args.command == "multiply":
            return _cmd_multiply(args)
        if args.command == "convolve":
            return _cmd_convolve(args)
        if args.command == "shot-sweep":
            return _cmd_shot_sweep(args)
        return _cmd_selftest()
    except QwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an input or kernel file that cannot be read, or an --out that cannot
        # be a directory; every route loads its inputs before it makes --out
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror
        where = "" if exc.filename is None else f"{exc.filename}: "  # a failed write names none
        print(f"error: {where}{reason}", file=sys.stderr)
        return 1
    finally:
        warnings.showwarning, warnings.defaultaction = saved


if __name__ == "__main__":
    sys.exit(main())
