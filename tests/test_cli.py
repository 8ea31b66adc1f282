import json

import pytest

from schedsim.analysis import analyze, compare
from schedsim.cli import main
from schedsim.engine import MAX_THREADS, ScheduleTrace
from schedsim import jsontext
from schedsim.task_graph import (
    PollOutcome,
    Spawn,
    TaskGraph,
    TaskSpec,
    graph_from_dict,
    graph_from_json,
    graph_to_json,
    validate,
)


def generate(tmp_path, name, *args):
    out = tmp_path / name
    code = main(["generate", *args, "-o", str(out)])
    return code, out


def starvation_graph(tmp_path):
    code, path = generate(
        tmp_path,
        "starve.json",
        "starvation",
        "--t", "2", "--c", "4", "--e", "2",
        "--poll-cost", "1", "--enclave-cost", "5",
    )
    assert code == 0
    return path


class TestGenerate:
    def test_enclave_generate_writes_valid_graph(self, tmp_path, capsys):
        code, out = generate(
            tmp_path,
            "g.json",
            "enclave",
            "--k", "2", "--timesteps", "2", "--seed", "7",
            "--cells-per-traversal", "3", "2",
            "--enclaves-per-traversal", "2", "0",
            "--cell-cost", "2",
            "--enclave-cost-min", "1", "--enclave-cost-max", "3",
        )
        assert code == 0
        graph = graph_from_json(out.read_text())
        assert validate(graph) == []
        printed = capsys.readouterr().out
        assert "tasks" in printed and "total_work" in printed

    def test_enclave_generate_with_default_lists(self, tmp_path):
        code, out = generate(tmp_path, "g.json", "enclave", "--k", "4", "--timesteps", "2", "--seed", "7")
        assert code == 0
        assert validate(graph_from_json(out.read_text())) == []

    def test_invalid_starvation_params_exit_2(self, tmp_path, capsys):
        code = main(
            ["generate", "starvation", "--t", "2", "--c", "3", "--e", "1",
             "-o", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "C > T + 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [(("enclave",), "enclave needs --k"), (("starvation", "--t", "2"), "starvation needs --c")],
    )
    def test_missing_size_flag_named(self, tmp_path, capsys, args, flag):
        code, out = generate(tmp_path, "g.json", *args)
        assert code == 2
        assert capsys.readouterr().err == f"error: generate {flag}\n"
        assert not out.exists()

    def test_same_flags_identical_files(self, tmp_path):
        args = (
            "nested-loop",
            "--k", "3", "--loop-chunks", "2", "--chunk-cost", "5",
            "--prefix-cost", "2", "--suffix-cost", "2", "--seed", "3",
        )
        _, a = generate(tmp_path, "a.json", *args)
        _, b = generate(tmp_path, "b.json", *args)
        a_data = json.loads(a.read_text())
        b_data = json.loads(b.read_text())
        # meta carries the output path; the payload itself must be identical
        assert a_data["tasks"] == b_data["tasks"]
        assert a_data["roots"] == b_data["roots"]

    @pytest.mark.parametrize(
        "args",
        [
            ("enclave", "--k", "2", "--timesteps", "2", "--seed", "7", "--cell-cost", "2",
             "--cells-per-traversal", "3", "2", "--enclaves-per-traversal", "2", "1",
             "--enclave-cost-min", "2", "--enclave-cost-max", "4", "--defer", "must_defer",
             "--yield-mode", "throughput", "--wait-mode", "latency"),
            ("starvation", "--t", "2", "--c", "5", "--e", "2", "--poll-cost", "4",
             "--enclave-cost", "3", "--seed", "9"),
            ("nested-loop", "--k", "3", "--loop-chunks", "2", "--chunk-cost", "5",
             "--chunk-priority", "2", "--prefix-cost", "2", "--suffix-cost", "3",
             "--loops-everywhere"),
            ("two-timestep", "--k", "3", "--traversal-cost", "4", "--straggler-cost", "9",
             "--wait-mode", "latency"),
        ],
        ids=lambda args: args[0],
    )
    def test_graph_reproduces_from_its_meta(self, tmp_path, args):
        _, first = generate(tmp_path, "first.json", *args)
        data = json.loads(first.read_text())
        flags = dict(data["meta"]["invocation"])
        assert (flags.pop("command"), flags.pop("output")) == ("generate", str(first))
        argv = [flags.pop("pattern")]
        for key, value in flags.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, list):
                argv += [flag, *map(str, value)]
            elif value is not False:
                argv += [flag, str(value)]
        code, again = generate(tmp_path, "again.json", *argv)
        assert code == 0
        again_data = json.loads(again.read_text())
        assert again_data["tasks"] == data["tasks"]
        assert again_data["roots"] == data["roots"]


class TestSimulate:
    def test_starvation_reference_exit_3(self, tmp_path, capsys):
        graph = starvation_graph(tmp_path)
        code = main(["simulate", str(graph), "--policy", "reference", "--threads", "2"])
        assert code == 3
        assert "starvation_detected" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", [0, MAX_THREADS + 1])
    def test_thread_count_out_of_range_exit_2(self, tmp_path, capsys, threads):
        graph = starvation_graph(tmp_path)
        assert main(["simulate", str(graph), "--threads", str(threads)]) == 2
        assert f"thread_count must be in [1, {MAX_THREADS}]" in capsys.readouterr().err

    def test_starvation_extended_fair_yield_exit_0(self, tmp_path, capsys):
        graph = starvation_graph(tmp_path)
        code = main(
            ["simulate", str(graph), "--policy", "extended", "--fair-yield",
             "--priority-steal", "--threads", "2"]
        )
        assert code == 0
        assert "completed" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_time_limit_exit_4(self, tmp_path):
        graph = starvation_graph(tmp_path)
        code = main(
            ["simulate", str(graph), "--policy", "extended", "--fair-yield",
             "--priority-steal", "--threads", "2", "--max-time", "3"]
        )
        assert code == 4

    def test_trace_and_csv_outputs(self, tmp_path):
        graph = starvation_graph(tmp_path)
        trace_path = tmp_path / "t.json"
        csv_path = tmp_path / "t.csv"
        code = main(
            ["simulate", str(graph), "--policy", "extended", "--threads", "2",
             "-o", str(trace_path), "--csv", str(csv_path)]
        )
        assert code == 0
        data = json.loads(trace_path.read_text())
        assert data["meta"]["invocation"]["policy"] == "extended"
        assert csv_path.read_text().startswith("thread,task,start,end,kind")

    def test_no_throttle_flag(self, tmp_path, capsys):
        code, graph = generate(
            tmp_path,
            "g.json",
            "enclave",
            "--k", "1", "--cells-per-traversal", "2",
            "--enclaves-per-traversal", "4",
        )
        assert code == 0
        code = main(
            ["simulate", str(graph), "--policy", "reference", "--threads", "1",
             "--queue-bound", "1", "--no-throttle"]
        )
        assert code == 0

    @pytest.mark.parametrize("bound", ["0", "-3"])
    @pytest.mark.parametrize(
        "flags",
        [["--policy", "reference"], ["--policy", "reference", "--no-throttle"], ["--policy", "fcfs"],
         ["--policy", "extended"], ["--policy", "extended", "--fair-yield", "--no-throttle"]],
        ids=["reference", "reference-unbounded", "fcfs", "extended", "extended-flags"],
    )
    def test_non_positive_queue_bound_refused_at_parse_time(self, tmp_path, capsys, flags, bound):
        graph = starvation_graph(tmp_path)
        with pytest.raises(SystemExit) as stop:
            main(["simulate", str(graph), *flags, "--queue-bound", bound])
        assert stop.value.code == 2
        assert f"argument --queue-bound: must be a positive int, got {bound}\n" in capsys.readouterr().err


class TestCompareReport:
    def make_traces(self, tmp_path):
        graph = starvation_graph(tmp_path)
        fast = tmp_path / "fast.json"
        slow = tmp_path / "slow.json"
        assert main(
            ["simulate", str(graph), "--policy", "extended", "--fair-yield",
             "--priority-steal", "--threads", "2", "-o", str(fast)]
        ) == 0
        assert main(
            ["simulate", str(graph), "--policy", "fcfs", "--threads", "2",
             "-o", str(slow)]
        ) == 0
        return graph, slow, fast

    def test_compare_self_reports_zero(self, tmp_path, capsys):
        graph, slow, _ = self.make_traces(tmp_path)
        code = main(["compare", str(graph), str(slow), str(slow)])
        assert code == 0
        assert "reduction 0%" in capsys.readouterr().out

    def test_compare_writes_report(self, tmp_path):
        graph, slow, fast = self.make_traces(tmp_path)
        out = tmp_path / "cmp.json"
        code = main(["compare", str(graph), str(slow), str(fast), "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert "reduction_percent" in data
        report = compare(
            graph_from_json(graph.read_text()),
            ScheduleTrace.from_json(slow.read_text()),
            ScheduleTrace.from_json(fast.read_text()),
        )
        invocation = {
            "baseline": str(slow),
            "command": "compare",
            "graph": str(graph),
            "output": str(out),
            "variant": str(fast),
        }
        meta = {"tool": "schedsim", "invocation": invocation}
        assert out.read_text() == json.dumps({"meta": meta, **report.to_dict()}, indent=2)

    def test_report_writes_report(self, tmp_path):
        graph, slow, _ = self.make_traces(tmp_path)
        out = tmp_path / "report.json"
        assert main(["report", str(graph), str(slow), "-o", str(out)]) == 0
        report = analyze(graph_from_json(graph.read_text()), ScheduleTrace.from_json(slow.read_text()))
        invocation = {"command": "report", "graph": str(graph), "output": str(out), "trace": str(slow)}
        data = json.loads(out.read_text())
        assert data == {"meta": {"tool": "schedsim", "invocation": invocation}, **report.to_dict()}

    def test_compare_mismatched_trace_exit_2(self, tmp_path):
        graph, slow, _ = self.make_traces(tmp_path)
        other = tmp_path / "other.json"
        # a smaller graph: the traces reference task ids it does not have
        assert main(
            ["generate", "starvation", "--t", "1", "--c", "3", "--e", "1",
             "-o", str(other)]
        ) == 0
        code = main(["compare", str(other), str(slow), str(slow)])
        assert code == 2

    def test_report_svg_rows(self, tmp_path):
        graph, slow, _ = self.make_traces(tmp_path)
        svg = tmp_path / "out.svg"
        code = main(["report", str(graph), str(slow), "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.count('<text x="4"') == 2  # one label per thread

    def test_report_prints_table(self, tmp_path, capsys):
        graph, slow, _ = self.make_traces(tmp_path)
        code = main(["report", str(graph), str(slow)])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "occupancy" in out

    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_poll_cycle_is_an_input_error(self, tmp_path, capsys, command):
        """Two roots that poll each other pass `validate` and simulate to
        starvation, but have no critical path: one error line, not a traceback."""
        cycle = TaskGraph((TaskSpec(0, (PollOutcome(1),)), TaskSpec(1, (PollOutcome(0),))), (0, 1))
        assert validate(cycle) == []
        graph, trace = tmp_path / "cycle.json", tmp_path / "trace.json"
        graph.write_text(graph_to_json(cycle))
        assert main(["simulate", str(graph), "--threads", "2", "-o", str(trace)]) == 3
        capsys.readouterr()
        traces = [str(trace)] * (2 if command == "compare" else 1)
        assert main([command, str(graph), *traces]) == 2
        assert capsys.readouterr().err == (
            f"error: {graph}: poll/wait/spawn edges form a cycle; task 0 is on it or waits behind it\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "starvation", "--t", "2", "--c", "4", "--e", "2", "-o", "OUT"],
        ["simulate", "GRAPH", "-o", "OUT"],
        ["simulate", "GRAPH", "--csv", "OUT"],
        ["compare", "GRAPH", "TRACE", "TRACE", "-o", "OUT"],
        ["report", "GRAPH", "TRACE", "-o", "OUT"],
        ["report", "GRAPH", "TRACE", "--svg", "OUT"],
    ],
    ids=["generate", "simulate", "simulate-csv", "compare", "report", "report-svg"],
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, argv):
    graph, trace, _ = TestCompareReport().make_traces(tmp_path)
    out = tmp_path / "missing" / "out"
    paths = {"GRAPH": str(graph), "TRACE": str(trace), "OUT": str(out)}
    capsys.readouterr()
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


def malformed(tmp_path, name, mutate, source):
    """Write `source` back with `mutate` applied to its parsed JSON."""
    data = json.loads(source.read_text())
    path = tmp_path / name
    path.write_text(json.dumps(mutate(data)))
    return path


def null_priority(graph):
    graph["tasks"][0]["priority"] = None
    return graph


def int_action(graph):
    graph["tasks"][0]["actions"].append(7)
    return graph


def null_event(trace):
    trace["events"][0] = None
    return trace


def as_array(data):
    return [data]


def thread_past_count(trace):
    trace["segments"][0]["thread"] = trace["thread_count"] + 7
    return trace


def negative_thread(trace):
    trace["segments"][0]["thread"] = -1
    return trace


def no_threads(trace):
    trace["thread_count"] = 0
    return trace


def huge_thread_count(trace):
    trace["thread_count"] = 10**30
    return trace


def no_threads_no_records(trace):
    trace.update(thread_count=0, segments=[], events=[])
    return trace


def swapped_segment(trace):
    seg = trace["segments"][0]
    seg["start"], seg["end"] = seg["end"], seg["start"]
    return trace


def segment_past_makespan(trace):
    trace["segments"][0]["end"] = trace["makespan"] + 1
    return trace


def event_past_makespan(trace):
    trace["events"][0]["time"] = trace["makespan"] + 1
    return trace


TRACE_MUTATIONS = [
    null_event,
    as_array,
    thread_past_count,
    negative_thread,
    no_threads,
    huge_thread_count,
    no_threads_no_records,
    swapped_segment,
    segment_past_makespan,
    event_past_makespan,
]


def dropped(*path):
    """A mutation that deletes the key at the end of `path`."""

    def mutate(data):
        *head, key = path
        target = data
        for step in head:
            target = target[step]
        del target[key]
        return data

    return mutate


def childless_spawn(graph):
    graph["tasks"][1]["actions"].insert(1, {"type": "spawn", "defer": "runtime"})
    return graph


class TestMalformedFiles:
    """Files of the wrong shape, and traces naming threads outside their
    thread count, with no threads, or with segments or events that are
    empty or lie outside the makespan, are input errors: `error: ...`,
    exit 2."""

    def assert_usage_error(self, code, capsys):
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mutate", [null_priority, int_action, as_array])
    def test_simulate(self, tmp_path, capsys, mutate):
        graph = malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path))
        self.assert_usage_error(main(["simulate", str(graph)]), capsys)

    @pytest.mark.parametrize(
        "mutate, text",
        [
            (dropped("roots"), "roots: missing"),
            (dropped("tasks", 3, "label"), "task 3, label: missing"),
            (childless_spawn, "task 1, action 1, child: missing"),
        ],
        ids=["roots", "label", "spawn-child"],
    )
    def test_missing_graph_key_named(self, tmp_path, capsys, mutate, text):
        graph = malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path))
        capsys.readouterr()
        assert main(["simulate", str(graph)]) == 2
        assert capsys.readouterr().err == f"error: {graph}: malformed graph file: {text}\n"

    @pytest.mark.parametrize(
        "mutate, text",
        [(dropped("segments"), "segments: missing"), (dropped("segments", 0, "kind"), "segment 0, kind: missing")],
        ids=["segments", "segment-kind"],
    )
    def test_missing_trace_key_named(self, tmp_path, capsys, mutate, text):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, slow)
        capsys.readouterr()
        assert main(["report", str(graph), str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: malformed trace file: {text}\n"

    @pytest.mark.parametrize("mutate", TRACE_MUTATIONS)
    def test_compare(self, tmp_path, capsys, mutate):
        graph, slow, fast = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, fast)
        self.assert_usage_error(main(["compare", str(graph), str(slow), str(bad)]), capsys)

    @pytest.mark.parametrize("mutate", TRACE_MUTATIONS)
    def test_report(self, tmp_path, capsys, mutate):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, slow)
        self.assert_usage_error(main(["report", str(graph), str(bad)]), capsys)


def huge_duration(graph):
    action = next(a for t in graph["tasks"] for a in t["actions"] if a["type"] == "compute")
    action["duration"] = "HUGE"
    return graph


def huge_root(graph):
    graph["roots"][0] = "HUGE"
    return graph


def huge_start(trace):
    trace["segments"][0]["start"] = "HUGE"
    return trace


def write_huge(path):
    """Replace the "HUGE" marker by a number no int field can hold."""
    path.write_text(path.read_text().replace('"HUGE"', "1e400"))
    return path


class TestUnreadableNumbersAndNesting:
    """A number that overflows an integer field, or a document nested too
    deep to decode, is a malformed file: one `error:` line, exit 2."""

    def assert_one_error_line(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mutate", [huge_duration, huge_root])
    def test_simulate_huge_number(self, tmp_path, capsys, mutate):
        graph = write_huge(malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path)))
        self.assert_one_error_line(main(["simulate", str(graph)]), capsys)

    def test_report_huge_number(self, tmp_path, capsys):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = write_huge(malformed(tmp_path, "bad.json", huge_start, slow))
        self.assert_one_error_line(main(["report", str(graph), str(bad)]), capsys)

    def test_simulate_deep_nesting(self, tmp_path, capsys):
        graph = tmp_path / "deep.json"
        graph.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_one_error_line(main(["simulate", str(graph)]), capsys)


def string_tied(graph):
    graph["tasks"][0]["tied"] = "false"
    return graph


def number_label(graph):
    graph["tasks"][0]["label"] = 7
    return graph


def float_duration(graph):
    action = next(a for t in graph["tasks"] for a in t["actions"] if a["type"] == "compute")
    action["duration"] = 2.9
    return graph


def float_start(trace):
    seg = trace["segments"][0]
    seg["start"] = seg["start"] + 0.9
    return trace


def bool_duration(graph):
    action = next(a for t in graph["tasks"] for a in t["actions"] if a["type"] == "compute")
    action["duration"] = True
    return graph


def bool_start(trace):
    trace["segments"][0]["start"] = False
    return trace


def bool_thread_count(trace):
    trace["thread_count"] = True
    return trace


GRAPH_TYPE_MUTATIONS = [string_tied, number_label, float_duration, bool_duration]


class TestFieldTypes:
    """A value of the wrong JSON type is an input error, not a conversion:
    "false" is not false, 7 is not a label, and 2.9 or 0.9 is not an
    integer.  One `error:` line, exit 2."""

    def assert_one_error_line(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mutate", GRAPH_TYPE_MUTATIONS)
    def test_simulate(self, tmp_path, capsys, mutate):
        graph = malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path))
        self.assert_one_error_line(main(["simulate", str(graph)]), capsys)

    @pytest.mark.parametrize("mutate", GRAPH_TYPE_MUTATIONS + [float_start])
    def test_compare(self, tmp_path, capsys, mutate):
        graph, slow, fast = TestCompareReport().make_traces(tmp_path)
        if mutate is float_start:
            fast = malformed(tmp_path, "bad.json", mutate, fast)
        else:
            graph = malformed(tmp_path, "bad.json", mutate, graph)
        capsys.readouterr()
        self.assert_one_error_line(main(["compare", str(graph), str(slow), str(fast)]), capsys)

    @pytest.mark.parametrize("mutate", GRAPH_TYPE_MUTATIONS + [float_start])
    def test_report(self, tmp_path, capsys, mutate):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        if mutate is float_start:
            slow = malformed(tmp_path, "bad.json", mutate, slow)
        else:
            graph = malformed(tmp_path, "bad.json", mutate, graph)
        capsys.readouterr()
        self.assert_one_error_line(main(["report", str(graph), str(slow)]), capsys)


def first_compute(graph):
    """(task position, action position) of the first compute action."""
    return next(
        (pos, at)
        for pos, task in enumerate(graph["tasks"])
        for at, action in enumerate(task["actions"])
        if action["type"] == "compute"
    )


class TestBooleansAndNamedFields:
    """A JSON boolean is not an integer, though Python counts it as one;
    the error names the record and the field that holds the bad value."""

    def error_of(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("value, shown", [(True, "true"), (2.9, "2.9"), ("5", '"5"'), (None, "null")])
    def test_graph_field_named(self, tmp_path, capsys, value, shown):
        source = starvation_graph(tmp_path)
        pos, at = first_compute(json.loads(source.read_text()))

        def mutate(graph):
            graph["tasks"][pos]["actions"][at]["duration"] = value
            return graph

        graph = malformed(tmp_path, "bad.json", mutate, source)
        err = self.error_of(main(["simulate", str(graph)]), capsys)
        assert f"task {pos}, action {at}, duration: expected an integer, got {shown}" in err

    def test_task_and_root_fields_named(self, tmp_path, capsys):
        source = starvation_graph(tmp_path)

        def bool_priority(graph):
            graph["tasks"][2]["priority"] = False
            return graph

        graph = malformed(tmp_path, "bad.json", bool_priority, source)
        err = self.error_of(main(["simulate", str(graph)]), capsys)
        assert "task 2, priority: expected an integer, got false" in err

        graph = malformed(tmp_path, "bad.json", lambda g: dict(g, roots=[True]), source)
        err = self.error_of(main(["simulate", str(graph)]), capsys)
        assert "root 0: expected an integer, got true" in err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (bool_start, "segment 0, start: expected an integer, got false"),
            (bool_thread_count, "thread_count: expected an integer, got true"),
            (float_start, "segment 0, start: expected an integer, got"),
        ],
    )
    def test_trace_field_named(self, tmp_path, capsys, mutate, named):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, slow)
        capsys.readouterr()
        err = self.error_of(main(["report", str(graph), str(bad)]), capsys)
        assert named in err

    def test_event_field_named(self, tmp_path, capsys):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)

        def bool_task(trace):
            trace["events"][1]["task"] = True
            return trace

        bad = malformed(tmp_path, "bad.json", bool_task, slow)
        capsys.readouterr()
        err = self.error_of(main(["compare", str(graph), str(slow), str(bad)]), capsys)
        assert "event 1, task: expected an integer, got true" in err

    def test_decoders_reject_booleans(self, tmp_path):
        graph_path, slow, _ = TestCompareReport().make_traces(tmp_path)
        graph = json.loads(graph_path.read_text())
        pos, at = first_compute(graph)
        graph["tasks"][pos]["actions"][at]["duration"] = True
        with pytest.raises(TypeError, match="duration"):
            graph_from_dict(graph)
        trace = json.loads(slow.read_text())
        trace["segments"][0]["start"] = False
        with pytest.raises(TypeError, match="start"):
            ScheduleTrace.from_dict(trace)

    def test_valid_files_skip_the_walk(self, tmp_path, monkeypatch):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)

        def fail(*args):
            raise AssertionError("the schema walk ran on a valid file")

        monkeypatch.setattr(jsontext, "check", fail)
        assert graph_from_json(graph.read_text()).tasks
        assert ScheduleTrace.from_json(slow.read_text()).segments


def set_task(pos, value):
    def mutate(graph):
        graph["tasks"][pos] = value
        return graph
    return mutate


def set_action(pos, at, value):
    def mutate(graph):
        graph["tasks"][pos]["actions"][at] = value
        return graph
    return mutate


def set_record(key, pos, value):
    def mutate(trace):
        trace[key][pos] = value
        return trace
    return mutate


class TestNonObjectRecords:
    """A task, action, segment or event that is not a JSON object is named
    by its position: one `error:` line, exit 2."""

    def error_of(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (set_task(5, 7), "task 5: expected an object, got 7"),
            (set_task(0, None), "task 0: expected an object, got null"),
            (set_action(2, 0, None), "task 2, action 0: expected an object, got null"),
            (set_action(3, 0, [1, 2]), "task 3, action 0: expected an object, got [1, 2]"),
        ],
    )
    def test_graph_record_named(self, tmp_path, capsys, mutate, named):
        graph = malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path))
        err = self.error_of(main(["simulate", str(graph)]), capsys)
        assert f"malformed graph file: {named}\n" in err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (set_record("events", 3, None), "event 3: expected an object, got null"),
            (set_record("events", 0, 5), "event 0: expected an object, got 5"),
            (set_record("segments", 2, "x"), 'segment 2: expected an object, got "x"'),
        ],
    )
    def test_trace_record_named(self, tmp_path, capsys, mutate, named):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, slow)
        capsys.readouterr()
        err = self.error_of(main(["report", str(graph), str(bad)]), capsys)
        assert f"malformed trace file: {named}\n" in err


def set_field(records, pos, key, value, at=None):
    def mutate(data):
        record = data[records][pos] if at is None else data[records][pos]["actions"][at]
        record[key] = value
        return data
    return mutate


def replace_action(pos, action):
    def mutate(data):
        data["tasks"][pos]["actions"][0] = action
        return data
    return mutate


class TestUnknownValues:
    """An unknown action type, mode or record kind, or an unhashable one,
    names its file, its record and its field, as a value of the wrong type
    does: one `error:` line, exit 2."""

    def error_of(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (set_field("tasks", 4, "type", "sleep", at=0), "task 4, action 0, type: 'sleep' is not a valid action type"),
            (set_field("tasks", 4, "type", ["sleep"], at=0), "task 4, action 0, type: unhashable type: 'list'"),
            (
                set_field("tasks", 3, "yield_mode", "sometimes", at=0),
                "task 3, action 0, yield_mode: 'sometimes' is not a valid YieldMode",
            ),
            (set_field("tasks", 3, "yield_mode", [], at=0), "task 3, action 0, yield_mode: unhashable type: 'list'"),
            (
                replace_action(0, {"type": "spawn", "child": 4, "defer": "later"}),
                "task 0, action 0, defer: 'later' is not a valid DeferMode",
            ),
            (
                replace_action(1, {"type": "taskgroup_end", "mode": "eventually"}),
                "task 1, action 0, mode: 'eventually' is not a valid WaitMode",
            ),
            (
                replace_action(1, {"type": "taskwait_children", "mode": {"latency": True}}),
                "task 1, action 0, mode: unhashable type: 'dict'",
            ),
        ],
        ids=["action-type", "action-type-list", "yield-mode", "yield-mode-list", "defer", "mode", "mode-dict"],
    )
    def test_graph_value_named(self, tmp_path, capsys, mutate, named):
        graph = malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path))
        err = self.error_of(main(["simulate", str(graph)]), capsys)
        assert f"bad.json: malformed graph file: {named}\n" in err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (set_field("segments", 1, "kind", "bogus"), "segment 1, kind: 'bogus' is not a valid SegmentKind"),
            (set_field("segments", 1, "kind", ["compute"]), "segment 1, kind: unhashable type: 'list'"),
            (set_field("events", 2, "kind", "bogus"), "event 2, kind: 'bogus' is not a valid EventKind"),
            (set_field("events", 2, "kind", {}), "event 2, kind: unhashable type: 'dict'"),
            (lambda trace: dict(trace, outcome="meh"), "outcome: 'meh' is not a valid Outcome"),
            (lambda trace: dict(trace, outcome=["completed"]), "outcome: unhashable type: 'list'"),
        ],
        ids=["segment-kind", "segment-kind-list", "event-kind", "event-kind-dict", "outcome", "outcome-list"],
    )
    def test_trace_value_named(self, tmp_path, capsys, mutate, named):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, slow)
        capsys.readouterr()
        err = self.error_of(main(["report", str(graph), str(bad)]), capsys)
        assert f"bad.json: malformed trace file: {named}\n" in err


def set_top(key, value):
    return lambda data: dict(data, **{key: value})


class TestNonArrays:
    """A task, root, action, segment or event list that is not a JSON
    array, and a document that is not an object, are named as a record of
    the wrong type is: one `error:` line, exit 2, the value cut at 60
    characters."""

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (set_field("tasks", 0, "actions", 5), "task 0, actions: expected an array, got 5"),
            (set_field("tasks", 0, "actions", None), "task 0, actions: expected an array, got null"),
            (
                set_field("tasks", 0, "actions", {"type": "compute", "duration": 3}),
                'task 0, actions: expected an array, got {"type": "compute", "duration": 3}',
            ),
            (set_field("tasks", 0, "actions", {}), "task 0, actions: expected an array, got {}"),
            (set_field("tasks", 2, "actions", ""), 'task 2, actions: expected an array, got ""'),
            (set_top("tasks", 5), "tasks: expected an array, got 5"),
            (set_top("tasks", {}), "tasks: expected an array, got {}"),
            (set_top("roots", ""), 'roots: expected an array, got ""'),
        ],
        ids=["actions-5", "actions-null", "actions-object", "actions-empty-object", "actions-empty-string",
             "tasks-5", "tasks-empty-object", "roots-empty-string"],
    )
    def test_graph_array_named(self, tmp_path, capsys, mutate, named):
        graph = malformed(tmp_path, "bad.json", mutate, starvation_graph(tmp_path))
        capsys.readouterr()
        assert main(["simulate", str(graph)]) == 2
        assert capsys.readouterr().err == f"error: {graph}: malformed graph file: {named}\n"

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (set_top("segments", 5), "segments: expected an array, got 5"),
            (set_top("segments", {}), "segments: expected an array, got {}"),
            (set_top("events", None), "events: expected an array, got null"),
        ],
        ids=["segments-5", "segments-empty-object", "events-null"],
    )
    def test_trace_array_named(self, tmp_path, capsys, mutate, named):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        bad = malformed(tmp_path, "bad.json", mutate, slow)
        capsys.readouterr()
        assert main(["report", str(graph), str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: malformed trace file: {named}\n"

    def test_top_level_array_shown_cut(self, tmp_path, capsys):
        graph, slow, _ = TestCompareReport().make_traces(tmp_path)
        for argv, what, path in [(["simulate"], "graph", graph), (["report", str(graph)], "trace", slow)]:
            bad = malformed(tmp_path, "bad.json", as_array, path)
            shown = json.dumps(json.loads(bad.read_text()))[:57] + "..."
            capsys.readouterr()
            assert main([*argv, str(bad)]) == 2
            assert capsys.readouterr().err == f"error: {bad}: malformed {what} file: expected an object, got {shown}\n"


def test_simulate_refuses_a_graph_that_fails_validation(tmp_path, capsys):
    # well formed, so it decodes, but the task spawns itself
    graph = tmp_path / "self.json"
    graph.write_text(graph_to_json(TaskGraph((TaskSpec(0, (Spawn(0),)),), (0,))))
    assert main(["simulate", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph invalid: [") and "SelfSpawn" in err
