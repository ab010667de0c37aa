"""Command-line front end: generation, training, experiments, and chat."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import domain, orchestrator
from .domain import PLAIN_ACTS, ActType, DialogueAct, ONTOLOGY, UNK, inform_slot_act, request_act
from .neural import NeuralError, QFunction, epsilon_greedy
from .orchestrator import TrainConfig
from .replay import ReplayError
from .student import N_ACTIONS, STATE_DIM, featurize, materialize, start_dialogue
from .user_sim import FAILURE, ONGOING, SUCCESS, KnowledgeBase, session_step


class CliError(Exception):
    """Bad flag values; exits with status 2."""


def _numbers(kind, flag: str, text: str, parts: list[str]) -> list:
    """Each part converted by kind; a part it rejects is a bad flag value."""
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise CliError(f"{flag} expects {kind.__name__} values, got {text!r}") from None


def _parse_sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError("--sizes expects three comma-separated integers")
    sizes = tuple(_numbers(int, "--sizes", text, parts))
    if min(sizes) < 1:
        raise CliError(f"--sizes must all be >= 1, got {text!r}")
    return sizes  # type: ignore[return-value]


def _parse_seeds(text: str) -> list[int]:
    """Either a comma list ('1,2,3') or an inclusive range ('1..5')."""
    if ".." in text:
        lo, hi = _numbers(int, "--seeds", text, text.split("..", 1))
        seeds = list(range(lo, hi + 1))
        if not seeds:
            raise CliError(f"--seeds range {text!r} is empty")
    else:
        seeds = _distinct("--seeds", _numbers(int, "--seeds", text, text.split(",")))
    if min(seeds) < 0:
        raise CliError(f"--seeds must all be >= 0, got {text!r}")
    return seeds


def _parse_floats(text: str) -> list[float]:
    return _numbers(float, "--alphas", text, text.split(","))


def _distinct(flag: str, values: list) -> list:
    """The values of a list flag; a repeated one would train the same runs twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise CliError(f"{flag} repeats {value!r}")
    return values


def _check_evaluated(args) -> None:
    """A comparison's curves are its evaluation rows; refuse a run that makes none."""
    if args.eval_every > args.epochs:
        raise CliError(f"--eval-every {args.eval_every} exceeds --epochs {args.epochs}: "
                       "no evaluation to compare")


def _load_environment(args, seed: int):
    """Corpus and KB from --goals/--kb, each generated from seed when its flag is unset."""
    rows = domain.load_kb_rows(args.kb) if args.kb else domain.generate_kb_rows(seed)
    if not rows:
        raise domain.DomainError(f"{args.kb} holds no rows")
    corpus = domain.load_corpus(args.goals) if args.goals else domain.generate_corpus(seed, rows)
    if len(corpus) == 0:
        raise domain.DomainError(f"{args.goals} holds no goals")
    return corpus, KnowledgeBase(rows)


def _load_student(path) -> QFunction:
    """A checkpoint eval and chat can run: a net from student states to system acts."""
    q = QFunction.load(path)
    if (q.input_dim, q.output_dim) != (STATE_DIM, N_ACTIONS):
        raise NeuralError(f"{path} maps {q.input_dim} inputs to {q.output_dim} outputs; "
                          f"a student net maps {STATE_DIM} to {N_ACTIONS}")
    return q


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_from_args(args, agent: str) -> TrainConfig:
    return TrainConfig(agent_kind=agent, num_epochs=args.epochs, alpha=args.alpha,
                       eval_every=args.eval_every, eval_dialogues=args.eval_dialogues)


def cmd_gen_goals(args) -> int:
    sizes = _parse_sizes(args.sizes)
    out = _out_dir(args)
    corpus = domain.generate_corpus(args.seed, domain.generate_kb_rows(args.seed), sizes)
    path = out / "goals.jsonl"
    domain.save_corpus(corpus, path)
    print(f"wrote {len(corpus)} goals to {path}")
    return 0


def cmd_gen_kb(args) -> int:
    if args.rows < 1:
        raise CliError(f"--rows must be >= 1, got {args.rows}")
    out = _out_dir(args)
    rows = domain.generate_kb_rows(args.seed, n_rows=args.rows)
    path = out / "kb.jsonl"
    domain.save_kb_rows(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args, args.agent)
    corpus, kb = _load_environment(args, args.seed)
    result = orchestrator.run_training(config, args.seed, corpus, kb)
    out = _out_dir(args)
    orchestrator.write_run_logs(result.metrics, out)
    result.student_q.save(out / "student.qfn")
    final = result.metrics.eval_rows[-1] if result.metrics.eval_rows else None
    if final:
        print(f"final success rate: {final[1]:.4f} (epoch {final[0]})")
    return 0


def cmd_eval(args) -> int:
    corpus, kb = _load_environment(args, args.seed)
    q = _load_student(args.checkpoint)
    rng = np.random.default_rng([args.seed, 6])
    sr, rew, trn = orchestrator.evaluate_policy(q, corpus, kb,
                                                args.eval_dialogues, rng)
    print(f"success={sr:.4f} reward={rew:.2f} turns={trn:.2f}")
    return 0


def _compare(args, configs: list[TrainConfig], curve_name):
    """Every config on every --seeds seed, on the environment of the first seed,
    with one curve per config written to --out as curve_{curve_name(config)}.csv."""
    seeds = _parse_seeds(args.seeds)
    _check_evaluated(args)
    corpus, kb = _load_environment(args, seeds[0])
    # One comparison over every config, so the pool spans them all.
    report = orchestrator.run_comparison(configs, seeds, corpus, kb)
    out = _out_dir(args)
    for config in configs:
        orchestrator.write_curve_csv(report, config, out / f"curve_{curve_name(config)}.csv")
    print(f"wrote {len(configs)} curves to {out}")
    return report, corpus, out


def cmd_compare(args) -> int:
    configs = [_config_from_args(args, a) for a in _distinct("--agents", args.agents.split(","))]
    report, corpus, out = _compare(args, configs, lambda config: config.agent_kind)
    # The last curve row's mean and variance of the success rate over the seeds.
    orchestrator.write_csv(out / "stability.csv",
                           ["agent", "final_mean_success", "final_var_success"],
                           ([config.agent_kind, *report.curve(config)[-1][1:3]]
                            for config in configs))
    orchestrator.write_csv(out / "selection_counts.csv",
                           ["agent", "seed", *(f"g{g}" for g in corpus.all_ids())],
                           ([run.config.agent_kind, run.seed,
                             *orchestrator.selection_counts(run.metrics, len(corpus))]
                            for run in report.runs))
    return 0


def cmd_sweep(args) -> int:
    alphas = _distinct("--alphas", _parse_floats(args.alphas))
    configs = [replace(_config_from_args(args, "acl-c"), alpha=a) for a in alphas]
    _compare(args, configs, lambda config: f"alpha_{config.alpha}")
    return 0


# --- interactive chat ------------------------------------------------------

_TEMPLATES = {
    ActType.REQUEST: "May I ask: what {slots}?",
    ActType.INFORM: "Here is what I found: {values}.",
    ActType.CONFIRM_QUESTION: "Could you confirm that?",
    ActType.CONFIRM_ANSWER: "Understood.",
    ActType.DENY: "I'm afraid that's not right.",
    ActType.THANKS: "Thank you!",
    ActType.CLOSING: "Goodbye.",
    ActType.GREETING: "Hello! How can I help you book a movie?",
    ActType.NOT_SURE: "I'm not sure about that.",
    ActType.MULTIPLE_CHOICE: "There are several options.",
    ActType.BOOK: "I'd like to book those tickets for you now.",
}


def render_act(act: DialogueAct) -> str:
    """Readable template text for a dialogue act."""
    template = _TEMPLATES[act.act_type]
    slots = " and ".join(act.slots)
    values = ", ".join(f"{s}={v}" for s, v in act.payload if v != UNK)
    return template.format(slots=slots or "that", values=values or "nothing")


def _menu_user_act(stdin, stdout) -> DialogueAct | None:
    """Guided act entry; None means the human ends the dialogue.

    Input that names no act, slot or value is reported and asked for again.
    """
    while True:
        stdout.write("your act [request/inform/confirm_answer/deny/thanks/quit]: ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            return None
        choice = line.strip().lower()
        if choice in ("quit", "q", ""):
            return None
        try:
            return _read_act(choice, stdin, stdout)
        except (ValueError, domain.DomainError) as exc:
            stdout.write(f"not understood: {exc}; try again\n")


def _read_act(choice: str, stdin, stdout) -> DialogueAct:
    """The act a menu choice names, reading its slot or slot=value line."""
    if choice == "request":
        stdout.write(f"slot ({', '.join(ONTOLOGY)}): ")
        stdout.flush()
        return request_act(stdin.readline().strip())
    if choice == "inform":
        stdout.write("slot=value: ")
        stdout.flush()
        line = stdin.readline().strip()
        slot, eq, value = line.partition("=")
        if not eq or not value:
            raise domain.DomainError(f"expected slot=value, got {line!r}")
        return inform_slot_act(slot, value)
    return PLAIN_ACTS[ActType(choice)]


def run_chat_session(q: QFunction, goal, kb: KnowledgeBase, rng,
                     stdin=sys.stdin, stdout=sys.stdout) -> dict:
    """One human-driven dialogue; returns the transcript record."""
    session, ctx = start_dialogue(goal, kb, rng)
    first_act = ctx.last_user_act
    stdout.write("Your goal:\n")
    stdout.write(f"  constraints: {goal.inform_dict}\n")
    stdout.write(f"  find out:    {', '.join(goal.request_slots)}\n")
    stdout.write(f"you: {render_act(first_act)}\n")
    transcript = [("user", first_act.act_type.value, dict(first_act.payload))]
    while session.status == ONGOING:
        action = epsilon_greedy(q, featurize(ctx), 0.0, rng)
        system_act = materialize(action, ctx)
        ctx.observe_system(system_act)
        stdout.write(f"system: {render_act(system_act)}\n")
        transcript.append(("system", system_act.act_type.value, dict(system_act.payload)))
        # the human's reply replaces the simulator's scripted user side
        user_act = _menu_user_act(stdin, stdout)
        if user_act is None:
            session.status = FAILURE
            break
        session_step(session, system_act)  # bookkeeping for turn cap / booking
        ctx.observe_user(user_act)
        ctx.turn = session.turn
        transcript.append(("user", user_act.act_type.value, dict(user_act.payload)))
    success = session.status == SUCCESS
    score = None
    if success:
        stdout.write("score this dialogue 1-10: ")
        stdout.flush()
        line = stdin.readline().strip()
        score = int(line) if line.isdecimal() and 1 <= int(line) <= 10 else None
    stdout.write(f"dialogue {'succeeded' if success else 'failed'}\n")
    return {"goal_id": goal.id, "success": success, "score": score,
            "transcript": transcript}


def cmd_chat(args) -> int:
    corpus, kb = _load_environment(args, args.seed)
    q = _load_student(args.checkpoint)
    rng = np.random.default_rng([args.seed, 7])
    goal = corpus.goals[int(rng.integers(len(corpus.goals)))]
    record = run_chat_session(q, goal, kb, rng)
    out = _out_dir(args)
    with open(out / "chat_log.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acl-dqn",
        description="Curriculum-taught DQN dialogue policy training")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands share; each subcommand takes only those it reads.
    shared = {
        "--goals": dict(default=None, help="goal corpus file"),
        "--kb": dict(default=None, help="knowledge base file"),
        "--out": dict(default=".", help="output directory"),
        "--seed": dict(type=int, default=1),
        "--eval-every": dict(type=int, default=TrainConfig.eval_every),
        "--eval-dialogues": dict(type=int, default=TrainConfig.eval_dialogues),
        "--epochs": dict(type=int, default=TrainConfig.num_epochs),
        "--checkpoint": dict(required=True),
    }

    def add_flags(p, *names):
        for name in names:
            p.add_argument(name, **shared[name])

    p = sub.add_parser("gen-goals", help="generate a synthetic goal corpus")
    p.add_argument("--sizes", default=",".join(map(str, domain.TIER_SIZES)))
    add_flags(p, "--seed", "--out")
    p.set_defaults(func=cmd_gen_goals)

    p = sub.add_parser("gen-kb", help="generate the synthetic knowledge base")
    p.add_argument("--rows", type=int, default=domain.KB_ROWS)
    add_flags(p, "--seed", "--out")
    p.set_defaults(func=cmd_gen_kb)

    p = sub.add_parser("train", help="train one agent")
    p.add_argument("--agent", default=TrainConfig.agent_kind)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    add_flags(p, "--epochs", "--goals", "--kb", "--out", "--seed", "--eval-every",
              "--eval-dialogues")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    add_flags(p, "--checkpoint", "--goals", "--kb", "--seed", "--eval-dialogues")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="run the multi-agent comparison")
    p.add_argument("--agents", default="dqn,acl-a,acl-b,acl-c")
    p.add_argument("--seeds", default="1..5")
    add_flags(p, "--epochs", "--goals", "--kb", "--out", "--eval-every", "--eval-dialogues")
    p.set_defaults(func=cmd_compare, alpha=TrainConfig.alpha)  # no --alpha flag

    p = sub.add_parser("sweep-alpha", help="mastery threshold sweep (acl-c)")
    p.add_argument("--alphas", default="0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--seeds", default="1..3")
    add_flags(p, "--epochs", "--goals", "--kb", "--out", "--eval-every", "--eval-dialogues")
    p.set_defaults(func=cmd_sweep, alpha=TrainConfig.alpha)  # no --alpha flag

    p = sub.add_parser("chat", help="talk to a trained agent at act level")
    add_flags(p, "--checkpoint", "--goals", "--kb", "--out", "--seed")
    p.set_defaults(func=cmd_chat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        level = os.environ.get("ACLDQN_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):  # a name it knows maps to its level
            raise CliError(f"ACLDQN_LOG names no log level: {level!r}")
        logging.basicConfig(level=level)
        if getattr(args, "seed", 0) < 0:  # numpy seeds only from non-negative integers
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (CliError, orchestrator.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (domain.DomainError, NeuralError, ReplayError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
