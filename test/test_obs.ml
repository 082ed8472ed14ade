(* Tests for the telemetry subsystem: JSON round-trips, registry
   semantics, the trace/report pipeline, and the cardinal invariant -
   telemetry on/off and any worker count leave experiment output
   byte-identical. *)

module Obs = Csync_obs.Registry
module Json = Csync_obs.Json
module Manifest = Csync_obs.Manifest
module Report = Csync_obs.Report
module Mon = Csync_obs.Monitor
module Diff = Csync_obs.Diff
module Record = Csync_obs.Record
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* Every test that installs a registry must clear it, or a failure would
   leak telemetry into unrelated suites. *)
let with_installed reg f =
  Obs.install reg;
  Fun.protect ~finally:Obs.clear_installed f

(* Same discipline for the ambient monitor. *)
let with_monitor mon f =
  Mon.install mon;
  Fun.protect ~finally:Mon.clear_installed f

let json_tests =
  [
    t "writer emits canonical scalars" (fun () ->
        Alcotest.(check string)
          "obj" {|{"a":1,"b":true,"c":"x\n","d":null}|}
          (Json.to_string
             (Json.Obj
                [
                  ("a", Json.num_of_int 1);
                  ("b", Json.Bool true);
                  ("c", Json.Str "x\n");
                  ("d", Json.Null);
                ]));
        Alcotest.(check string)
          "ints have no fraction" "[3,-2,0]"
          (Json.to_string (Json.Arr [ Json.Num 3.; Json.Num (-2.); Json.Num 0. ]));
        Alcotest.(check string) "nan encodes as null" "null"
          (Json.to_string (Json.Num Float.nan)));
    t "parser round-trips the writer" (fun () ->
        let v =
          Json.Obj
            [
              ("name", Json.Str "net.delay.0->1");
              ("xs", Json.Arr [ Json.Num 0.1; Json.Num 1e-9; Json.Num 12345.25 ]);
              ("quote", Json.Str "a\"b\\c\td");
              ("flags", Json.Arr [ Json.Bool false; Json.Null ]);
            ]
        in
        match Json.of_string (Json.to_string v) with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok v' -> check_true "round-trip" (v = v'));
    t "floats survive exactly" (fun () ->
        let f = 0.1 +. 0.2 in
        match Json.of_string (Json.to_string (Json.Num f)) with
        | Ok (Json.Num f') -> check_true "bit-exact" (Float.equal f f')
        | _ -> Alcotest.fail "expected a number");
    t "parser rejects garbage" (fun () ->
        check_true "trailing" (Result.is_error (Json.of_string "{} x"));
        check_true "unterminated" (Result.is_error (Json.of_string "[1,"));
        check_true "bad literal" (Result.is_error (Json.of_string "troo")));
    qcheck ~count:300 ~name:"member is List.assoc_opt, duplicate keys included"
      QCheck2.Gen.(
        pair
          (list_size (0 -- 12)
             (pair (oneofl [ ""; "a"; "b"; "ab"; "name"; "names" ]) (0 -- 9)))
          (oneofl [ ""; "a"; "b"; "ab"; "name"; "names"; "zz" ]))
      (fun (fields, k) ->
        let l = List.map (fun (k, v) -> (k, Json.num_of_int v)) fields in
        Json.member k (Json.Obj l) = List.assoc_opt k l);
    t "num_of_int is Num (float_of_int i), cached or not" (fun () ->
        List.iter
          (fun i ->
            check_true (string_of_int i)
              (Json.num_of_int i = Json.Num (float_of_int i)))
          [ -1; 0; Json.num_cache - 1; Json.num_cache; max_int ];
        check_true "cached nodes are shared"
          (Json.num_of_int 3 == Json.num_of_int 3));
    qcheck ~count:300
      ~name:"int_array matches float-then-truncate on integral input"
      QCheck2.Gen.(list_size (0 -- 20) (int_range (-1_000_000) 1_000_000))
      (fun ints ->
        let v = Json.Arr (List.map Json.num_of_int ints) in
        let reference =
          Option.map (Array.map int_of_float) (Json.float_array v)
        in
        Json.int_array v = reference
        && Json.int_array v = Some (Array.of_list ints));
    t "int_array applies to_int's rule to every element" (fun () ->
        let arr l = Json.Arr l in
        check_true "fraction" (Json.int_array (arr [ Json.Num 1.5 ]) = None);
        check_true "after a good element"
          (Json.int_array (arr [ Json.Num 2.; Json.Num (-0.5) ]) = None);
        check_true "infinite"
          (Json.int_array (arr [ Json.Num Float.infinity ]) = None);
        check_true "null" (Json.int_array (arr [ Json.Null ]) = None);
        check_true "integral"
          (Json.int_array (arr [ Json.Num 2.; Json.Num 0. ]) = Some [| 2; 0 |]);
        let line counts =
          Printf.sprintf
            {|{"record":"hist","name":"h","lo":0,"hi":1,"counts":%s,"underflow":0,"overflow":0,"invalid":0,"total":1}|}
            counts
        in
        let hist counts =
          Result.bind (Json.of_string (line counts)) Record.of_json
        in
        check_true "integral hist decodes" (Result.is_ok (hist "[1]"));
        (match hist "[1.5]" with
        | Ok _ -> Alcotest.fail "a fractional bin count must not decode"
        | Error e -> check_true "names the field" (contains e "counts"));
        check_true "report rejects it"
          (Result.is_error (Report.of_lines [ line "[1.5]" ])));
  ]

let registry_tests =
  [
    t "disabled registry handles are no-ops" (fun () ->
        let r = Obs.none in
        let c = Obs.counter r "c" in
        Obs.Counter.incr c;
        check_int "counter" 0 (Obs.Counter.value c);
        let g = Obs.gauge r "g" in
        check_bool "inactive" false (Obs.Gauge.active g);
        Obs.Gauge.set g 5.;
        check_true "no value" (Obs.Gauge.value g = None);
        let s = Obs.series r "s" in
        Obs.Series.push s 1. 2.;
        check_true "no points" (Obs.Series.points s = []);
        Obs.event r "e" [];
        check_int "no records" 0 (List.length (Obs.dump r)));
    t "counters and gauges accumulate" (fun () ->
        let r = Obs.create () in
        let c = Obs.counter r "c" in
        Obs.Counter.incr c;
        Obs.Counter.add c 4;
        check_int "counter" 5 (Obs.Counter.value c);
        (* Interning: same name, same cell. *)
        Obs.Counter.incr (Obs.counter r "c");
        check_int "interned" 6 (Obs.Counter.value c);
        let g = Obs.gauge r "g" in
        Obs.Gauge.observe_max g 2.;
        Obs.Gauge.observe_max g 7.;
        Obs.Gauge.observe_max g 3.;
        check_true "high water" (Obs.Gauge.value g = Some 7.));
    t "series keeps insertion order" (fun () ->
        let r = Obs.create () in
        let s = Obs.series r "s" in
        for i = 1 to 100 do
          Obs.Series.push s (float_of_int i) (float_of_int (i * i))
        done;
        let pts = Obs.Series.points s in
        check_int "length" 100 (List.length pts);
        check_true "first" (List.hd pts = (1., 1.));
        check_true "last" (List.nth pts 99 = (100., 10000.)));
    t "span records durations" (fun () ->
        let r = Obs.create () in
        let p = Obs.span r "p" in
        Obs.Span.record p 0.5;
        let v = Obs.Span.time p (fun () -> 42) in
        check_int "result" 42 v;
        check_int "count" 2 (Obs.Span.count p));
    t "label prefixes minted names" (fun () ->
        let r = Obs.create () in
        Obs.set_label r "cell A";
        Obs.Counter.incr (Obs.counter r "x");
        Obs.set_label r "";
        Obs.Counter.incr (Obs.counter r "x");
        let names =
          List.filter_map
            (fun j -> Option.bind (Json.member "name" j) Json.to_str)
            (Obs.dump r)
        in
        check_true "labeled" (List.mem "cell A/x" names);
        check_true "unlabeled" (List.mem "x" names));
    t "dump is sorted and parseable" (fun () ->
        let r = Obs.create () in
        Obs.Counter.incr (Obs.counter r "b");
        Obs.Counter.incr (Obs.counter r "a");
        let h = Obs.hist r ~lo:0. ~hi:1. ~bins:4 "h" in
        Obs.Hist.add h 0.5;
        Obs.Hist.add h Float.nan;
        Obs.event r "ev" [ ("k", Json.Str "v") ];
        let dump = Obs.dump r in
        let lines = List.map Json.to_string dump in
        List.iter
          (fun line ->
            match Report.check_line line with
            | Ok () -> ()
            | Error e -> Alcotest.failf "bad record %s: %s" line e)
          lines;
        let counter_names =
          List.filter_map
            (fun j ->
              match Json.member "record" j with
              | Some (Json.Str "counter") ->
                Option.bind (Json.member "name" j) Json.to_str
              | _ -> None)
            dump
        in
        check_true "sorted" (counter_names = [ "a"; "b" ]));
    t "event cap drops excess and reports it" (fun () ->
        let r = Obs.create () in
        for _ = 1 to 65537 do
          Obs.event r "e" []
        done;
        let dump = Obs.dump r in
        let dropped =
          List.exists
            (fun j ->
              Json.member "name" j = Some (Json.Str "obs.events_dropped"))
            dump
        in
        check_true "dropped counter present" dropped);
  ]

let manifest_tests =
  [
    t "manifest shape" (fun () ->
        let m = Manifest.make ~target:"E1" ~seed:7 ~jobs:2 ~quick:true () in
        check_true "record" (Json.member "record" m = Some (Json.Str "manifest"));
        check_true "schema"
          (Json.member "schema" m = Some (Json.Str Manifest.schema));
        check_true "seed"
          (Option.bind (Json.member "seed" m) Json.to_int = Some 7);
        match Report.check_line (Json.to_string m) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "manifest rejected: %s" e);
  ]

let report_tests =
  [
    t "trace parses and renders every section" (fun () ->
        let r = Obs.create () in
        let run () =
          let params = params () in
          let scenario = Csync_harness.Scenario.default ~seed:42 params in
          Csync_harness.Scenario.run
            { scenario with Csync_harness.Scenario.rounds = 6 }
        in
        let _ = with_installed r run in
        let lines =
          Json.to_string (Manifest.make ~target:"test" ~seed:42 ~jobs:1 ~quick:true ())
          :: List.map Json.to_string (Obs.dump r)
        in
        match Report.of_lines lines with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok parsed ->
          let out = Format.asprintf "%a" (Report.render ?focus:None) parsed in
          check_true "manifest section" (contains out "== Manifest ==");
          check_true "skew timeline" (contains out "run.skew");
          check_true "adj table" (contains out "ADJ per round");
          check_true "delay histogram" (contains out "net.delay");
          check_true "sim counter" (contains out "sim.events"));
    t "malformed lines are rejected with a line number" (fun () ->
        match Report.of_lines [ "{\"record\":\"manifest\"}"; "{oops" ] with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e -> check_true "names line 2" (contains e "line 2"));
    t "empty and manifest-only traces render" (fun () ->
        (match Report.of_lines [] with
        | Error e -> Alcotest.failf "empty trace: %s" e
        | Ok t ->
          let out = Format.asprintf "%a" (Report.render ?focus:None) t in
          check_true "notes the missing manifest"
            (contains out "no manifest record"));
        let m =
          Json.to_string (Manifest.make ~target:"E1" ~seed:1 ~jobs:1 ~quick:true ())
        in
        match Report.of_lines [ m ] with
        | Error e -> Alcotest.failf "manifest-only trace: %s" e
        | Ok t ->
          let out = Format.asprintf "%a" (Report.render ?focus:None) t in
          check_true "manifest section" (contains out "== Manifest ==");
          check_true "target" (contains out "E1"));
    t "default focus skips the unlabeled run-level metrics" (fun () ->
        (* The outer pool's metrics carry no cell label; with no skew
           series to go by, the report still focuses the first cell. *)
        let rep =
          Report.of_records
            [
              Record.Counter ("pool.tasks.worker0", 3);
              Record.Counter ("E16/ring n=100/scale.events", 8);
              Record.Counter ("E16/grid n=100/scale.events", 8);
            ]
        in
        let out = Format.asprintf "%a" (Report.render ?focus:None) rep in
        check_true "first cell focused" (contains out "* E16/grid n=100");
        check_true "unlabeled listed" (contains out "  (unlabeled)"));
  ]

(* Forward compatibility: the reader must survive traces from newer
   writers (unknown record kinds, unknown manifest fields) with warnings,
   while staying a clean one-line error on genuinely malformed input. *)
let forward_compat_tests =
  [
    t "unknown record kinds are skipped with a warning" (fun () ->
        let lines =
          [
            {|{"record":"manifest","schema":"csync-trace/1","target":"E1"}|};
            {|{"record":"flux_capacitor","name":"x","value":88}|};
            {|{"record":"counter","name":"c","value":3}|};
          ]
        in
        match Report.of_lines lines with
        | Error e -> Alcotest.failf "reader should not fail: %s" e
        | Ok t ->
          check_int "counter still read" 1 (List.length (Report.counters t));
          check_int "one warning" 1 (List.length (Report.warnings t));
          check_true "warning names the kind"
            (contains (List.hd (Report.warnings t)) "flux_capacitor"));
    t "unknown manifest fields are skipped with a warning" (fun () ->
        let lines =
          [ {|{"record":"manifest","schema":"csync-trace/1","hovercraft":true}|} ]
        in
        match Report.of_lines lines with
        | Error e -> Alcotest.failf "reader should not fail: %s" e
        | Ok t ->
          check_int "one warning" 1 (List.length (Report.warnings t));
          check_true "warning names the field"
            (contains (List.hd (Report.warnings t)) "hovercraft"));
    t "the writer-side validator stays strict on unknown kinds" (fun () ->
        match Report.check_line {|{"record":"flux_capacitor"}|} with
        | Ok () -> Alcotest.fail "check_line must reject unknown kinds"
        | Error e -> check_true "names the kind" (contains e "flux_capacitor"));
    t "truncated and shape-broken lines give one-line errors" (fun () ->
        (match Report.of_lines [ {|{"record":"counter","na|} ] with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> check_true "names line 1" (contains e "line 1"));
        match
          Report.of_lines
            [ {|{"record":"series","name":"s","xs":[1],"ys":[1,2]}|} ]
        with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> check_true "mismatch named" (contains e "mismatch"));
  ]

(* Online theorem monitors: handle semantics of each of the four checks,
   the provenance ring, and end-to-end violation extraction from a
   chaos run. *)
let monitor_tests =
  let find_first mon check =
    List.find_map
      (fun (c, _, _, first) -> if c = check then first else None)
      (Mon.results mon)
  in
  [
    t "disabled monitor handles are permanent no-ops" (fun () ->
        let m = Mon.none in
        check_bool "disabled" false (Mon.enabled m);
        Mon.Agreement.check
          (Mon.Agreement.handle m ~gamma:1e-9 ~from_time:0.)
          ~time:1. ~skew:99.;
        Mon.Halving.observe
          (Mon.Halving.handle m ~recurrence:(fun b -> b /. 2.))
          ~round:1 ~spread:99.;
        let adj_h = Mon.Adjustment.handle m ~bound:1e-9 ~pid:0 in
        check_bool "inactive" false (Mon.Adjustment.active adj_h);
        Mon.Adjustment.check adj_h ~round:1 ~time:1. ~adj:99.
          ~slots:(fun () -> [||]);
        check_true "mint yields null"
          (Mon.Prov.mint m ~src:0 ~dst:1 ~sent:0. ~delay:1e-3 = Mon.Prov.null);
        check_true "null never resolves" (Mon.Prov.find m Mon.Prov.null = None);
        check_int "no evaluations" 0 (Mon.checks_performed m);
        check_int "no records" 0 (List.length (Mon.dump m)));
    t "adjustment resolves its slots only on a violation" (fun () ->
        let m = Mon.create () in
        let h = Mon.Adjustment.handle m ~bound:1e-3 ~pid:0 in
        let calls = ref 0 in
        let slots () =
          incr calls;
          [||]
        in
        Mon.Adjustment.check h ~round:1 ~time:1. ~adj:5e-4 ~slots;
        check_int "passing update" 0 !calls;
        Mon.Adjustment.check h ~round:2 ~time:2. ~adj:(-2e-3) ~slots;
        check_int "violation" 1 !calls;
        check_int "both evaluated" 2 (Mon.checks_performed m));
    t "agreement records the first violation past the warmup" (fun () ->
        let m = Mon.create () in
        let h = Mon.Agreement.handle m ~gamma:1.0 ~from_time:10. in
        Mon.Agreement.check h ~time:5. ~skew:99.;
        (* before warmup: no claim *)
        Mon.Agreement.check h ~time:10. ~skew:0.5;
        Mon.Agreement.check h ~time:11. ~skew:2.0;
        Mon.Agreement.check h ~time:12. ~skew:3.0;
        check_int "evaluations" 3 (Mon.checks_performed m);
        check_int "violations" 2 (Mon.violations_total m);
        match Mon.first_violation m with
        | None -> Alcotest.fail "expected a violation"
        | Some v ->
          check_float "first one wins" 11. v.Mon.time;
          check_float "measured" 2.0 v.Mon.measured;
          check_float "bound" 1.0 v.Mon.bound);
    t "validity checks both sides of the envelope" (fun () ->
        let m = Mon.create () in
        let h =
          Mon.Validity.handle m ~alpha1:0.9 ~alpha2:1.1 ~alpha3:0.01 ~t0:0.
            ~tmin0:0. ~tmax0:0.
        in
        Mon.Validity.check h ~time:1. ~min_local:0.95 ~max_local:1.05;
        check_int "in envelope" 0 (Mon.violations_total m);
        Mon.Validity.check h ~time:1. ~min_local:0.95 ~max_local:2.0;
        check_int "upper breach" 1 (Mon.violations_total m);
        Mon.Validity.check h ~time:1. ~min_local:0.5 ~max_local:1.05;
        check_int "lower breach" 2 (Mon.violations_total m);
        match find_first m Mon.Validity with
        | Some v -> check_float "first is the upper breach" 2.0 v.Mon.measured
        | None -> Alcotest.fail "expected a validity violation");
    t "halving checks consecutive rounds and resets on gaps" (fun () ->
        let m = Mon.create () in
        let h = Mon.Halving.handle m ~recurrence:(fun b -> b /. 2.) in
        Mon.Halving.observe h ~round:0 ~spread:1.0;
        (* chain start *)
        Mon.Halving.observe h ~round:1 ~spread:0.4;
        (* 0.4 <= 0.5: ok *)
        Mon.Halving.observe h ~round:2 ~spread:0.3;
        (* 0.3 > 0.2: violation *)
        Mon.Halving.observe h ~round:7 ~spread:10.0;
        (* gap: chain resets, no check *)
        check_int "two pairs evaluated" 2 (Mon.checks_performed m);
        check_int "one violation" 1 (Mon.violations_total m);
        match find_first m Mon.Halving with
        | Some v ->
          check_true "round recorded" (v.Mon.round = Some 2);
          check_float "bound is the recurrence image" 0.2 v.Mon.bound
        | None -> Alcotest.fail "expected a halving violation");
    t "adjustment violation resolves slot provenance, fresh first" (fun () ->
        let m = Mon.create () in
        Mon.Prov.stage_fault m "drop";
        let p1 = Mon.Prov.mint m ~src:1 ~dst:0 ~sent:0.1 ~delay:2e-3 in
        Mon.Prov.clear_staged m;
        let p2 = Mon.Prov.mint m ~src:2 ~dst:0 ~sent:0.2 ~delay:1e-3 in
        (match Mon.Prov.find m p1 with
        | Some e -> check_true "staged fault attached" (e.Mon.Prov.faults = [ "drop" ])
        | None -> Alcotest.fail "p1 must resolve");
        (match Mon.Prov.find m p2 with
        | Some e -> check_true "cleared after clear_staged" (e.Mon.Prov.faults = [])
        | None -> Alcotest.fail "p2 must resolve");
        let h = Mon.Adjustment.handle m ~bound:1e-4 ~pid:0 in
        check_bool "active" true (Mon.Adjustment.active h);
        let slots : Mon.slot array =
          [|
            { Mon.pid = 2; prov = p2; fresh = false };
            { Mon.pid = 1; prov = p1; fresh = true };
          |]
        in
        Mon.Adjustment.check h ~round:3 ~time:1.5 ~adj:(-2e-4)
          ~slots:(fun () -> slots);
        match find_first m Mon.Adjustment with
        | None -> Alcotest.fail "expected an adjustment violation"
        | Some v ->
          check_float "abs adj" 2e-4 v.Mon.measured;
          check_true "pid" (v.Mon.pid = Some 0);
          check_int "both slots resolved" 2 (List.length v.Mon.provenance);
          (match v.Mon.provenance with
          | (e1, fresh1) :: (e2, fresh2) :: [] ->
            check_bool "fresh slot first" true fresh1;
            check_int "fresh src" 1 e1.Mon.Prov.src;
            check_bool "stale second" false fresh2;
            check_int "stale src" 2 e2.Mon.Prov.src
          | _ -> Alcotest.fail "expected two provenance entries"));
    t "tightened bounds force violations in a clean scenario" (fun () ->
        let m = Mon.create ~tighten:1e-6 () in
        with_monitor m (fun () ->
            let scenario = Csync_harness.Scenario.default ~seed:42 (params ()) in
            ignore
              (Csync_harness.Scenario.run
                 { scenario with Csync_harness.Scenario.rounds = 6 }));
        check_true "violations recorded" (Mon.violations_total m > 0);
        check_true "a first violation exists" (Mon.first_violation m <> None));
    t "stabilization monitor: tight allowance fires, generous stays silent"
      (fun () ->
        (* Tight: 2 rounds x 0.5 s = 1 s allowance.  A corruption at t=10
           must be back in gamma by t=11; an out-of-gamma sample past the
           deadline is the violation, and its provenance names the
           corrupting fault. *)
        let m = Mon.create () in
        let h = Mon.Stabilization.handle m ~rounds:2 ~big_p:0.5 in
        check_bool "active" true (Mon.Stabilization.active h);
        Mon.Stabilization.corrupted h ~pid:3 ~time:10.;
        Mon.Stabilization.observe h ~pid:3 ~time:10.5 ~within_gamma:false;
        (* still inside the allowance: no claim yet *)
        check_int "no early violation" 0 (Mon.violations_total m);
        Mon.Stabilization.observe h ~pid:3 ~time:11.2 ~within_gamma:false;
        Mon.Stabilization.observe h ~pid:3 ~time:11.4 ~within_gamma:false;
        (* recorded once per obligation, on the first breach *)
        check_int "one violation" 1 (Mon.violations_total m);
        Mon.Stabilization.finish h ~time:12.;
        (match Mon.first_violation m with
        | None -> Alcotest.fail "expected a stabilization violation"
        | Some v ->
          check_true "names the pid" (v.Mon.pid = Some 3);
          check_float "measured: seconds since the corruption" 1.2
            v.Mon.measured;
          check_float "bound: the allowance" 1.0 v.Mon.bound;
          match v.Mon.provenance with
          | [ (e, _) ] ->
            check_true "provenance names the corruption"
              (e.Mon.Prov.faults = [ "state-corrupt" ])
          | _ -> Alcotest.fail "expected one minted provenance entry");
        (* Generous: 20 rounds = 10 s.  The same trajectory recovers well
           before the deadline, so the covered obligation passes. *)
        let m2 = Mon.create () in
        let h2 = Mon.Stabilization.handle m2 ~rounds:20 ~big_p:0.5 in
        Mon.Stabilization.corrupted h2 ~pid:3 ~time:10.;
        Mon.Stabilization.observe h2 ~pid:3 ~time:11.2 ~within_gamma:false;
        Mon.Stabilization.observe h2 ~pid:3 ~time:14. ~within_gamma:true;
        Mon.Stabilization.finish h2 ~time:30.;
        check_int "silent" 0 (Mon.violations_total m2);
        check_int "obligation resolved as a pass" 1 (Mon.checks_performed m2));
    t "eventual obligations anchor on the last corruption" (fun () ->
        let m = Mon.create () in
        let h = Mon.Stabilization.handle m ~rounds:2 ~big_p:0.5 in
        Mon.Stabilization.corrupted h ~pid:1 ~time:10.;
        (* A second hit at 10.8 replaces the obligation: deadline moves
           from 11 to 11.8, so a bad sample at 11.2 is no violation. *)
        Mon.Stabilization.corrupted h ~pid:1 ~time:10.8;
        Mon.Stabilization.observe h ~pid:1 ~time:11.2 ~within_gamma:false;
        check_int "re-anchored deadline not yet breached" 0
          (Mon.violations_total m);
        Mon.Stabilization.observe h ~pid:1 ~time:11.9 ~within_gamma:false;
        check_int "breached after the moved deadline" 1
          (Mon.violations_total m);
        (* An obligation whose deadline the run never covers is
           inconclusive: neither a violation nor a pass. *)
        let m2 = Mon.create () in
        let h2 = Mon.Stabilization.handle m2 ~rounds:2 ~big_p:0.5 in
        Mon.Stabilization.corrupted h2 ~pid:1 ~time:10.;
        Mon.Stabilization.finish h2 ~time:10.5;
        check_int "inconclusive: no claim" 0 (Mon.checks_performed m2));
    t "reconvergence monitor: gap bound enforced after the allowance"
      (fun () ->
        let m = Mon.create () in
        let h =
          Mon.Reconvergence.handle m ~rounds:2 ~big_p:0.5 ~bound:0.1
        in
        Mon.Reconvergence.corrupted h ~pid:5 ~time:0.;
        Mon.Reconvergence.observe h ~pid:5 ~time:0.5 ~gap:7.;
        (* inside the allowance *)
        check_int "no early violation" 0 (Mon.violations_total m);
        Mon.Reconvergence.observe h ~pid:5 ~time:1.2 ~gap:0.5;
        check_int "stale gap past the deadline" 1 (Mon.violations_total m);
        (match Mon.first_violation m with
        | Some v ->
          check_float "measured: the gap" 0.5 v.Mon.measured;
          check_float "bound" 0.1 v.Mon.bound
        | None -> Alcotest.fail "expected a reconvergence violation");
        (* A converged trajectory stays silent. *)
        let m2 = Mon.create () in
        let h2 =
          Mon.Reconvergence.handle m2 ~rounds:2 ~big_p:0.5 ~bound:0.1
        in
        Mon.Reconvergence.corrupted h2 ~pid:5 ~time:0.;
        Mon.Reconvergence.observe h2 ~pid:5 ~time:1.2 ~gap:0.05;
        Mon.Reconvergence.finish h2 ~time:2.;
        check_int "silent" 0 (Mon.violations_total m2);
        check_int "pass recorded" 1 (Mon.checks_performed m2));
    t "dump round-trips through the report reader" (fun () ->
        let m = Mon.create ~tighten:1e-6 () in
        with_monitor m (fun () ->
            let scenario = Csync_harness.Scenario.default ~seed:42 (params ()) in
            ignore
              (Csync_harness.Scenario.run
                 { scenario with Csync_harness.Scenario.rounds = 6 }));
        let lines = List.map Json.to_string (Mon.dump m) in
        check_int "one record per check" 7 (List.length lines);
        List.iter
          (fun line ->
            match Report.check_line line with
            | Ok () -> ()
            | Error e -> Alcotest.failf "bad monitor record %s: %s" line e)
          lines;
        match Report.of_lines lines with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok parsed ->
          check_int "seven monitors" 7 (List.length (Report.monitors parsed));
          let out = Format.asprintf "%a" (Report.render ?focus:None) parsed in
          check_true "monitors section" (contains out "== Monitors ==");
          check_true "first violation rendered"
            (contains out "first violation"));
  ]

(* End-to-end causal provenance: a chaos run whose network faults are
   active from t=0 on every link, monitored with tightened bounds, must
   yield an adjustment violation whose provenance names the injected
   faults behind the offending ARR slots (the observability acceptance
   criterion). *)
let provenance_tests =
  [
    t "chaos breach names the injected faults behind the ADJ" (fun () ->
        let params = params () in
        let n = params.Csync_core.Params.n in
        let over =
          Csync_chaos.Plan.interval ~from_time:0. ~until_time:1e6
        in
        let plan =
          List.concat_map
            (fun src ->
              List.filter_map
                (fun dst ->
                  if src = dst then None
                  else
                    Some
                      (Csync_chaos.Plan.Link
                         {
                           src;
                           dst;
                           fault = Csync_chaos.Plan.Reorder 2e-4;
                           over;
                         }))
                (List.init n Fun.id))
            (List.init n Fun.id)
        in
        let m = Mon.create ~tighten:1e-4 () in
        let result =
          with_monitor m (fun () ->
              Csync_harness.Runner_chaos.run
                (Csync_harness.Runner_chaos.make ~seed:7 ~rounds:16 ~params plan))
        in
        check_true "faults were injected"
          (Csync_chaos.Injector.total
             result.Csync_harness.Runner_chaos.stats
          > 0);
        let adj_first =
          List.find_map
            (fun (c, _, _, first) -> if c = Mon.Adjustment then first else None)
            (Mon.results m)
        in
        match adj_first with
        | None -> Alcotest.fail "expected an adjustment violation"
        | Some v ->
          check_true "provenance resolved" (v.Mon.provenance <> []);
          check_true "an injected fault is named"
            (List.exists
               (fun (e, _) -> List.mem "reorder" e.Mon.Prov.faults)
               v.Mon.provenance));
  ]

(* Cross-run trace diffing (csync report --diff).  Captures are built
   in memory - manifest line + registry dump + monitor dump, exactly
   what [csync trace] writes - and parsed back through the reader. *)
let diff_tests =
  let capture ?(seed = 42) ?(tighten = 1.0) () =
    let reg = Obs.create () and m = Mon.create ~tighten () in
    Obs.install reg;
    Mon.install m;
    Fun.protect
      ~finally:(fun () ->
        Obs.clear_installed ();
        Mon.clear_installed ())
      (fun () ->
        let scenario = Csync_harness.Scenario.default ~seed (params ()) in
        ignore
          (Csync_harness.Scenario.run
             { scenario with Csync_harness.Scenario.rounds = 6 }));
    let lines =
      List.map Json.to_string
        (Manifest.make ~target:"scenario" ~seed ~jobs:1 ~quick:true ()
         :: (Obs.dump reg @ Mon.dump m))
    in
    match Report.of_lines lines with
    | Ok t -> t
    | Error e -> Alcotest.failf "capture did not parse: %s" e
  in
  let manifest_only ~target =
    match
      Report.of_lines
        [ Json.to_string (Manifest.make ~target ~seed:1 ~jobs:1 ~quick:true ()) ]
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "manifest-only trace did not parse: %s" e
  in
  let render a b =
    Format.asprintf "%a"
      (fun ppf () -> Diff.render ppf ~name_a:"a.jsonl" ~name_b:"b.jsonl" a b)
      ()
  in
  [
    t "same-seed captures diff to a one-line verdict" (fun () ->
        let a = capture () and b = capture () in
        check_bool "identical" true (Diff.identical a b);
        let out = render a b in
        check_true "verdict" (contains out "no differences");
        check_true "no sections" (not (contains out "==")));
    t "wall-clock profiler data never breaks the golden verdict" (fun () ->
        (* Same deterministic content, different profiler timings/spans:
           exactly what two real same-seed runs look like.  The verdict
           must hold and the footnote must own up to what was skipped. *)
        let with_timing v =
          let lines =
            List.map Json.to_string
              [
                Manifest.make ~target:"scenario" ~seed:1 ~jobs:1 ~quick:true ();
                Record.to_json (Record.Counter ("E/run.rounds", 6));
                Record.to_json
                  (Record.Series ("E/profile.fill.ns", [| 1.; 2. |], [| v; v +. 7. |]));
                Record.to_json
                  (Record.Span
                     ("E/phase.drain", { Record.count = 8; total_s = v; max_s = v }));
                Record.to_json (Record.Gauge ("E/engine.wheel.depth", v));
              ]
          in
          match Report.of_lines lines with
          | Ok t -> t
          | Error e -> Alcotest.failf "timing trace did not parse: %s" e
        in
        let a = with_timing 10. and b = with_timing 1000. in
        check_bool "identical" true (Diff.identical a b);
        let out = render a b in
        check_true "verdict" (contains out "no differences");
        check_true "footnote" (contains out "wall-clock data not compared"));
    t "different seeds surface skew deltas" (fun () ->
        let a = capture ~seed:42 () and b = capture ~seed:43 () in
        check_bool "not identical" false (Diff.identical a b);
        let out = render a b in
        check_true "seed named in manifest drift"
          (contains out "Manifest differences" && contains out "seed");
        check_true "skew deltas section" (contains out "Skew deltas"));
    t "monitor verdict changes are reported" (fun () ->
        let a = capture () and b = capture ~tighten:1e-6 () in
        let out = render a b in
        check_true "verdict section" (contains out "Monitor verdict changes");
        check_true "breached side named" (contains out "VIOLATED"));
    t "mismatched schema/target pair is called out" (fun () ->
        let a = manifest_only ~target:"E1" and b = manifest_only ~target:"E4" in
        let out = render a b in
        check_true "manifest section" (contains out "Manifest differences");
        check_true "mismatch warning" (contains out "schema/target mismatch"));
  ]

(* The cardinal invariant (tentpole acceptance): telemetry enabled vs
   disabled, and --jobs 1 vs --jobs 4, produce byte-identical rendered
   tables and identical results.  Telemetry only observes - it draws no
   randomness and alters no scheduling - so any divergence here is a bug
   in an instrumentation site. *)
let experiment id =
  match Csync_harness.Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "%s not registered" id

let determinism_tests =
  let render_e1 ?monitor ~traced ~jobs () =
    let e1 = experiment "E1" in
    let go () =
      Format.asprintf "%a"
        (fun ppf () ->
          Csync_harness.Registry.render_list ~jobs ppf ~quick:true [ e1 ])
        ()
    in
    let go () = if traced then with_installed (Obs.create ()) go else go () in
    match monitor with None -> go () | Some m -> with_monitor m go
  in
  let chaos_skews ~traced ~jobs =
    let params = params () in
    let go () =
      List.map
        (fun r -> r.Csync_harness.Runner_chaos.result.Csync_harness.Runner_chaos.max_clean_skew)
        (Csync_harness.Runner_chaos.campaign ~jobs ~params
           ~seeds:[ 1001; 1002 ] ())
    in
    if traced then with_installed (Obs.create ()) go else go ()
  in
  [
    t "E1 tables byte-identical: telemetry on/off x jobs 1/4" (fun () ->
        let base = render_e1 ~traced:false ~jobs:1 () in
        check_true "render is not vacuous" (String.length base > 200);
        Alcotest.(check string) "traced jobs=1" base
          (render_e1 ~traced:true ~jobs:1 ());
        Alcotest.(check string) "plain jobs=4" base
          (render_e1 ~traced:false ~jobs:4 ());
        Alcotest.(check string) "traced jobs=4" base
          (render_e1 ~traced:true ~jobs:4 ()));
    t "monitored fault-free E1: zero violations, byte-identical tables"
      (fun () ->
        let base = render_e1 ~traced:false ~jobs:1 () in
        let m1 = Mon.create () in
        Alcotest.(check string) "monitored jobs=1" base
          (render_e1 ~monitor:m1 ~traced:false ~jobs:1 ());
        check_true "bounds were evaluated" (Mon.checks_performed m1 > 0);
        check_int "fault-free run is clean" 0 (Mon.violations_total m1);
        let m4 = Mon.create () in
        Alcotest.(check string) "monitored+traced jobs=4" base
          (render_e1 ~monitor:m4 ~traced:true ~jobs:4 ());
        check_int "clean at jobs=4" 0 (Mon.violations_total m4);
        check_int "same evaluations at any jobs" (Mon.checks_performed m1)
          (Mon.checks_performed m4));
    t "tracing-off monitored E5: summary identical at jobs 1 and 4" (fun () ->
        (* No registry installed: the pool must still hand every task its
           own monitor, or tasks would share the caller's across workers. *)
        let summary jobs =
          let m = Mon.create ~tighten:0.3 () in
          with_monitor m (fun () ->
              ignore
                (Csync_harness.Registry.run_list ~jobs ~quick:true
                   [ experiment "E5" ]));
          Format.asprintf "%a" Mon.pp_summary m
        in
        let s1 = summary 1 in
        check_true "a provenance line is printed" (contains s1 "msg #");
        Alcotest.(check string) "jobs=4" s1 (summary 4));
    t "chaos skews identical: telemetry on/off x jobs 1/4" (fun () ->
        let base = chaos_skews ~traced:false ~jobs:1 in
        check_int "two campaign runs" 2 (List.length base);
        check_true "skews are meaningful" (List.for_all (fun s -> s > 0.) base);
        let same skews = List.for_all2 Float.equal base skews in
        check_true "traced jobs=1" (same (chaos_skews ~traced:true ~jobs:1));
        check_true "plain jobs=4" (same (chaos_skews ~traced:false ~jobs:4));
        check_true "traced jobs=4" (same (chaos_skews ~traced:true ~jobs:4)));
  ]

(* ---------- binary trace container ---------- *)

module Btrace = Csync_obs.Btrace

(* Arbitrary records for the encode/decode round-trip: every tag, both
   series encodings (integral arrays hit INT_DELTA, fractional RAW64),
   labeled and bare names, linear and log histograms. *)
let record_gen =
  let open QCheck2.Gen in
  let base =
    oneofl
      [ "run.skew"; "net.delay"; "scale.events"; "proc.3.adj"; "profile.fill" ]
  in
  let label = oneofl [ ""; "E1/eps=0.0001"; "ring n=100" ] in
  let name = map2 (fun l b -> if l = "" then b else l ^ "/" ^ b) label base in
  let finite = map (fun f -> if Float.is_finite f then f else 1.5) float in
  let integral = map float_of_int (int_range (-100_000) 100_000) in
  let value = oneof [ finite; integral ] in
  let counter = map2 (fun n v -> Record.Counter (n, v)) name (int_range (-5) 1_000_000) in
  let gauge = map2 (fun n v -> Record.Gauge (n, v)) name finite in
  let series =
    int_range 0 16 >>= fun len ->
    map2
      (fun n (xs, ys) -> Record.Series (n, xs, ys))
      name
      (pair (array_size (return len) value) (array_size (return len) value))
  in
  let hist =
    name >>= fun n ->
    pair finite finite >>= fun (lo, hi) ->
    option (int_range 1 32) >>= fun per_decade ->
    array_size (int_range 0 12) (int_range 0 1000) >>= fun counts ->
    pair (int_range 0 50) (int_range 0 50) >>= fun (underflow, overflow) ->
    int_range 0 5 >>= fun invalid ->
    let total =
      Array.fold_left ( + ) (underflow + overflow + invalid) counts
    in
    return
      (Record.Hist
         ( n,
           { Record.lo; hi; per_decade; counts; underflow; overflow; invalid;
             total } ))
  in
  let span =
    map2
      (fun n (count, (total_s, max_s)) ->
        Record.Span (n, { Record.count; total_s; max_s }))
      name
      (pair (int_range 0 100_000) (pair finite finite))
  in
  let event =
    map2
      (fun n v -> Record.Event (n, Json.Obj [ ("v", Json.num_of_int v) ]))
      name (int_range 0 100)
  in
  let monitor =
    map2
      (fun mname (checks, (violations, first)) ->
        Record.Monitor (mname, { Record.checks; violations; first }))
      (oneofl [ "agreement"; "local_skew" ])
      (pair (int_range 0 1000)
         (pair (int_range 0 5)
            (option (return (Json.Obj [ ("time", Json.Num 1.5) ])))))
  in
  let manifest =
    return
      (Record.Manifest
         (Json.Obj
            [
              ("record", Json.Str "manifest");
              ("schema", Json.Str "csync-trace/1");
              ("target", Json.Str "E1");
            ]))
  in
  let unknown =
    return
      (Record.Unknown
         ("zzz", Json.Obj [ ("record", Json.Str "zzz"); ("k", Json.Num 2.) ]))
  in
  oneof [ counter; gauge; series; hist; span; event; monitor; manifest; unknown ]

let with_tmp suffix f =
  let path = Filename.temp_file "csync_test" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Encode records the way the fleet emitter does: the sink-based writer
   producing one self-contained btrace segment (magic + whole frames). *)
let segment records =
  let b = Buffer.create 256 in
  let w = Btrace.writer_fn (Buffer.add_string b) in
  List.iter (Btrace.write w) records;
  Btrace.close_writer w;
  Buffer.contents b

let drain_feed fd =
  let rec go acc =
    match Btrace.feed_next fd with
    | `Record r -> go (r :: acc)
    | `Await -> List.rev acc
    | `Error e -> Alcotest.failf "unexpected feed error: %s" e
  in
  go []

let btrace_tests =
  [
    qcheck ~count:100 ~name:"btrace encode/decode round-trips every record"
      QCheck2.Gen.(list_size (0 -- 20) record_gen)
      (fun records ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path records;
            match Btrace.fold_file path ~init:[] ~f:(fun acc r -> r :: acc) with
            | Error e -> QCheck2.Test.fail_reportf "read failed: %s" e
            | Ok rev -> List.rev rev = records));
    t "btrace magic is sniffable and jsonl is not" (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path [ Record.Counter ("a", 1) ];
            check_true "btrace sniffs" (Btrace.sniff_file path));
        with_tmp ".jsonl" (fun path ->
            let oc = open_out path in
            output_string oc "{\"record\":\"counter\",\"name\":\"a\",\"value\":1}\n";
            close_out oc;
            check_true "jsonl does not sniff" (not (Btrace.sniff_file path))));
    t "a truncated tail is truncation, not garbage" (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path
              [
                Record.Counter ("whole", 7);
                Record.Series
                  ("tail", [| 1.; 2.; 3. |], [| 0.5; 0.25; 0.125 |]);
              ];
            let bytes = read_all path in
            with_tmp ".cut" (fun cut ->
                let oc = open_out_bin cut in
                output_string oc (String.sub bytes 0 (String.length bytes - 4));
                close_out oc;
                (match Btrace.fold_file cut ~init:0 ~f:(fun n _ -> n + 1) with
                | Error e -> check_true "names truncation" (contains e "truncated")
                | Ok _ -> Alcotest.fail "expected a truncation error");
                (* The streaming reader rewinds at the cut, stably - what
                   csync top leans on while the writer is mid-record. *)
                let ic = open_in_bin cut in
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () ->
                    match Btrace.reader ic with
                    | Error e -> Alcotest.fail e
                    | Ok r ->
                      (match Btrace.next r with
                      | `Record (Record.Counter ("whole", 7)) -> ()
                      | _ -> Alcotest.fail "expected the whole record first");
                      check_true "truncated" (Btrace.next r = `Truncated);
                      check_true "stable on retry" (Btrace.next r = `Truncated));
                (* Once the writer finishes the record, a fresh pass reads
                   the whole file. *)
                let oc =
                  open_out_gen [ Open_append; Open_binary ] 0o644 cut
                in
                output_string oc
                  (String.sub bytes
                     (String.length bytes - 4)
                     4);
                close_out oc;
                match Btrace.fold_file cut ~init:0 ~f:(fun n _ -> n + 1) with
                | Ok 2 -> ()
                | Ok n -> Alcotest.failf "expected 2 records, got %d" n
                | Error e -> Alcotest.fail e)));
    t "report reads the binary container" (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path
              [
                Record.Manifest
                  (Json.Obj
                     [
                       ("record", Json.Str "manifest");
                       ("target", Json.Str "E9");
                     ]);
                Record.Counter ("cell/n.events", 12);
                Record.Series ("cell/run.skew", [| 1.; 2. |], [| 0.5; 0.25 |]);
              ];
            match Report.of_file path with
            | Error e -> Alcotest.fail e
            | Ok rep ->
              check_int "counter survives" 12
                (List.assoc "cell/n.events" (Report.counters rep));
              check_int "series survives" 1 (List.length (Report.series rep))));
    t "canonical keeps the computation, drops the wall clock" (fun () ->
        let manifest =
          Json.Obj
            [
              ("record", Json.Str "manifest");
              ("target", Json.Str "E1");
              ("seed", Json.num_of_int 7);
              ("jobs", Json.num_of_int 4);
              ("captured_unix", Json.Num 1.7e9);
              ("git_rev", Json.Str "abc");
            ]
        in
        let keep_series =
          Record.Series ("E1/run.skew", [| 1. |], [| 0.5 |])
        in
        let records =
          [
            Record.Manifest manifest;
            Record.Counter ("E1/run.count", 3);
            Record.Counter ("pool.tasks.worker0", 5);
            Record.Gauge ("sim.queue_depth_hw", 9.);
            Record.Span
              ("E1/profile.fill", { Record.count = 1; total_s = 0.1; max_s = 0.1 });
            Record.Series ("E1/profile.fill.ns", [| 0. |], [| 100. |]);
            Record.Series ("obs.worker3", [| 0. |], [| 1. |]);
            keep_series;
            Record.Monitor
              ("agreement", { Record.checks = 2; violations = 0; first = None });
          ]
        in
        match Record.canonical records with
        | [ Record.Manifest m; Record.Counter ("E1/run.count", 3); s; mon ] ->
          check_true "volatile manifest fields stripped"
            (Json.member "captured_unix" m = None
            && Json.member "git_rev" m = None
            && Json.member "jobs" m = None);
          check_true "target survives" (Json.member "target" m <> None);
          check_true "series kept" (s = keep_series);
          check_true "monitor kept"
            (match mon with Record.Monitor ("agreement", _) -> true | _ -> false)
        | other ->
          Alcotest.failf "unexpected canonical shape (%d records)"
            (List.length other));
  ]

(* ---------- string interning (STRDEF prefix references) ---------- *)

(* The STRDEF frames of a segment in order, as a reader sees them:
   (ref, shared, suffix) with ref = id + 1, or 0 for no reference. *)
let strdefs bytes =
  let pos = ref (String.length Btrace.magic) in
  let uvarint () =
    let rec go shift acc =
      let c = Char.code bytes.[!pos] in
      incr pos;
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let defs = ref [] in
  while !pos < String.length bytes do
    let len = uvarint () in
    let stop = !pos + len in
    if bytes.[!pos] = '\000' then begin
      incr pos;
      let r = uvarint () in
      let shared = if r > 0 then uvarint () else 0 in
      defs := (r, shared, String.sub bytes !pos (stop - !pos)) :: !defs
    end;
    pos := stop
  done;
  List.rev !defs

(* The reference choice by a scan over every earlier string in id order:
   the longest common prefix, the lowest id on ties, and no reference
   when nothing is shared. *)
let linear_ref defined s =
  let common a b =
    let n = min (String.length a) (String.length b) in
    let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
    go 0
  in
  let best = ref (0, 0) in
  List.iteri
    (fun i d ->
      let p = common d s in
      if p > snd !best then best := (i + 1, p))
    defined;
  !best

(* Strings in the order the writer first interns them: label, then base,
   per record. *)
let first_use names =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun name ->
      let label, base = Record.split_name name in
      List.filter
        (fun s ->
          let fresh = not (Hashtbl.mem seen s) in
          Hashtbl.replace seen s ();
          fresh)
        [ label; base ])
    names

(* Prefix-heavy names: per-link delays, process and profile metrics,
   labels with '/', the empty label and base, drawn from a small pool so
   that names repeat. *)
let intern_names_gen =
  let open QCheck2.Gen in
  let piece =
    oneofl
      [ "net.delay."; "proc."; "profile."; "E5/"; "E1/eps=0.0001/"; "/";
        "0"; "1"; "12"; "->"; "3"; ".adj"; "advance"; "apply"; ".ns"; "" ]
  in
  let name = map (String.concat "") (list_size (int_range 0 5) piece) in
  array_size (int_range 1 24) name >>= fun pool ->
  list_size (int_range 0 60)
    (map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)))

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let btrace_intern_tests =
  [
    qcheck ~count:300
      ~name:"btrace interning borrows the longest prefix, lowest id on ties"
      intern_names_gen
      (fun names ->
        let records = List.mapi (fun i n -> Record.Counter (n, i)) names in
        let bytes = segment records in
        let expected = first_use names in
        let defs = strdefs bytes in
        let defined = ref [] in
        List.length defs = List.length expected
        && List.for_all2
             (fun s (r, shared, suffix) ->
               let earlier = List.rev !defined in
               defined := s :: !defined;
               let prefix =
                 if r = 0 then ""
                 else String.sub (List.nth earlier (r - 1)) 0 shared
               in
               (r, shared) = linear_ref earlier s && prefix ^ suffix = s)
             expected defs
        &&
        (* Label and base are stored apart, so a name whose label is
           empty ("/x") reads back as its base. *)
        let stored name =
          match Record.split_name name with
          | "", base -> base
          | _ -> name
        in
        let fd = Btrace.feed () in
        Btrace.feed_bytes fd bytes;
        drain_feed fd
        = List.map
            (function
              | Record.Counter (n, v) -> Record.Counter (stored n, v)
              | r -> r)
            records);
    t "btrace encoding of a fixed record list is pinned" (fun () ->
        (* Sibling delays (lowest id wins the 0->1 / 0->2 tie for 0->3),
           a string that is a prefix of an earlier one, labels with '/',
           the empty name and base, and a repeated name. *)
        let records =
          [
            Record.Counter ("E5/net.delay.0->1", 1);
            Record.Counter ("E5/net.delay.0->2", 2);
            Record.Counter ("E5/net.delay.0->3", 3);
            Record.Counter ("E5/net.delay.1->0", 4);
            Record.Gauge ("E5/proc.3.adj", 0.5);
            Record.Counter ("profile.advance.ns", 5);
            Record.Counter ("profile.advance", 6);
            Record.Counter ("profile.apply.ns", 7);
            Record.Counter ("E1/eps=0.0001/net.delay.0->1", 8);
            Record.Counter ("E1/eps=0.0001/proc.3.adj", 9);
            Record.Counter ("", 10);
            Record.Counter ("E5/", 11);
            Record.Counter ("E5/net.delay.0->1", 12);
          ]
        in
        let golden =
          String.concat ""
            [
              "6373796e632d6274726163652f310a04000045351000006e65742e64";
              "656c61792e302d3e3104020001020400020d3204020002040400020d";
              "3304020003060700020a312d3e3004020004080c000070726f632e33";
              "2e61646a0b030005000000000000e03f0200001200060366696c652e";
              "616476616e63652e6e73040206070a0300080f040206080c0a000809";
              "70706c792e6e73040206090e0f000101312f6570733d302e30303031";
              "04020a011004020a0512040206061404020006160402000118";
            ]
        in
        Alcotest.(check string) "bytes" golden (hex (segment records)));
  ]

(* ---------- pinned record bodies ---------- *)

let hist ?per_decade ?(underflow = 0) ?(overflow = 0) ?(invalid = 0) ~lo ~hi
    counts =
  let total = Array.fold_left ( + ) (underflow + overflow + invalid) counts in
  { Record.lo; hi; per_decade; counts; underflow; overflow; invalid; total }

(* One record per body encoding, each in its own segment, pinned byte for
   byte so that reworking the codec cannot silently change the format. *)
let pinned_codec =
  [
    ( "dense counts, ns-exact bounds",
      Record.Hist
        ("E5/net.delay", hist ~lo:1e-3 ~hi:2e-3 ~underflow:1 [| 3; 7; 5; 5; 0; 2 |]),
      String.concat ""
        [
          "6373796e632d6274726163652f310a04000045350b00006e65742e64";
          "656c6179180500010180897a8092f401000600060803000904010000";
          "17";
        ] );
    ( "sparse counts, raw float bounds",
      Record.Hist
        ( "skew",
          hist ~per_decade:8 ~overflow:2 ~invalid:1 ~lo:(0.1 +. 0.2) ~hi:Float.pi
            [| 0; 0; 0; 9; 0; 0; 0; 0; 0; 0; 300; 0 |] ),
      String.concat ""
        [
          "6373796e632d6274726163652f310a020000060000736b6577230500";
          "0100343333333333d33facbcdcbb86d984ed7f080c0102030906ac02";
          "000201b802";
        ] );
    ( "RANGE xs, INT_DELTA ys",
      Record.Series ("E1/proc.3.adj", [| 0.; 1.; 2.; 3. |], [| 5.; -3.; 12.; 7. |]),
      String.concat ""
        [
          "6373796e632d6274726163652f310a04000045310c000070726f632e";
          "332e61646a0c04000104030002010a0f1e09";
        ] );
    ( "INT_SCALED xs, F64_XOR ys",
      Record.Series
        ( "E1/proc.3.corr",
          [| 1000.; 3000.; 2000.; 7000.; 6000. |],
          [| 0.1; 0.1; 0.1; 0.2; 0.2 |] ),
      String.concat ""
        [
          "6373796e632d6274726163652f310a04000045310d000070726f632e";
          "332e636f7272210400010504e8070204010a01029ab3e6cc99b3e6dc";
          "3f0000808080808080803800";
        ] );
    ( "RAW64 xs, constant RANGE ys",
      Record.Series
        ("run.skew", [| Float.pi; 1e-300; -2.5e10 +. 0.25 |], [| 4.; 4.; 4. |]),
      String.concat ""
        [
          "6373796e632d6274726163652f310a0200000a000072756e2e736b65";
          "77200400010300182d4454fb21094059f3f8c21f6ea5010000ffe776";
          "4817c2030800";
        ] );
    ( "ns-exact span",
      Record.Span
        ("E1/profile.fill", { Record.count = 3; total_s = 0.000123; max_s = 0.0001 }),
      String.concat ""
        [
          "6373796e632d6274726163652f310a04000045310e000070726f6669";
          "6c652e66696c6c0b0600010301f0810fc09a0c";
        ] );
    ( "raw float span",
      Record.Span
        ("wall", { Record.count = 1; total_s = 0.1 +. 0.2; max_s = 0.1 +. 0.2 }),
      String.concat ""
        [
          "6373796e632d6274726163652f310a02000006000077616c6c0e0600";
          "010100343333333333d33f00";
        ] );
  ]

(* A negative bin count forces the dense encoding, which the reader then
   rejects: hist bins count observations. *)
let pinned_negative_count =
  ( Record.Hist ("neg", hist ~lo:0. ~hi:1. [| 4; -1; 2 |]),
    String.concat ""
      [
        "6373796e632d6274726163652f310a0200000500006e656714050001";
        "010080a8d6b90700030008090600000005";
      ] )

let btrace_codec_tests =
  [
    t "btrace record bodies are pinned and round-trip" (fun () ->
        List.iter
          (fun (what, r, golden) ->
            let bytes = segment [ r ] in
            Alcotest.(check string) what golden (hex bytes);
            let fd = Btrace.feed () in
            Btrace.feed_bytes fd bytes;
            check_true (what ^ ": round-trips") (drain_feed fd = [ r ]))
          pinned_codec;
        let r, golden = pinned_negative_count in
        let bytes = segment [ r ] in
        Alcotest.(check string) "negative dense count" golden (hex bytes);
        let fd = Btrace.feed () in
        Btrace.feed_bytes fd bytes;
        match Btrace.feed_next fd with
        | `Error e -> check_true "names the count" (contains e "negative")
        | _ -> Alcotest.fail "expected the reader to reject a negative count");
  ]

(* ---------- per-task children and the round-phase profiler ---------- *)

module Profile = Csync_obs.Profile
module Pool = Csync_harness.Pool

let records_of_registry reg =
  List.filter_map (fun j -> Result.to_option (Record.of_json j)) (Obs.dump reg)

let report_of_registry reg = Report.of_records (records_of_registry reg)

let dump_lines reg = List.map Json.to_string (Obs.dump reg)

let child_profile_tests =
  [
    t "child counters sum into the parent on merge" (fun () ->
        let reg = Obs.create () in
        Obs.Counter.add (Obs.counter reg "c") 2;
        let a = Obs.child reg and b = Obs.child reg in
        Obs.Counter.add (Obs.counter a "c") 3;
        Obs.Counter.incr (Obs.counter b "c");
        Obs.Counter.incr (Obs.counter b "only.b");
        check_int "nothing reaches the parent before merge" 2
          (Obs.Counter.value (Obs.counter reg "c"));
        Obs.merge ~into:reg a;
        Obs.merge ~into:reg b;
        check_int "sum" 6 (Obs.Counter.value (Obs.counter reg "c"));
        check_int "new name" 1 (Obs.Counter.value (Obs.counter reg "only.b")));
    t "child histograms fold, a shape clash raises" (fun () ->
        let reg = Obs.create () in
        Obs.Hist.add (Obs.hist reg ~lo:0. ~hi:10. ~bins:5 "h") 1.;
        let c = Obs.child reg in
        let h = Obs.hist c ~lo:0. ~hi:10. ~bins:5 "h" in
        Obs.Hist.add h 7.;
        Obs.Hist.add h 70.;
        Obs.Hist.add (Obs.hist_log c ~lo:1e-3 ~hi:1. ~per_decade:4 "hl") 0.01;
        Obs.merge ~into:reg c;
        let rep = report_of_registry reg in
        let hr = List.assoc "h" (Report.hists rep) in
        check_int "folded total" 3 hr.Report.total;
        check_int "folded overflow" 1 hr.Report.overflow;
        let hlr = List.assoc "hl" (Report.hists rep) in
        check_true "log shape survives" (hlr.Report.per_decade = Some 4);
        check_int "log count" 1 hlr.Report.total;
        let clash = Obs.child reg in
        Obs.Hist.add (Obs.hist clash ~lo:0. ~hi:10. ~bins:4 "h") 1.;
        check_raises_invalid "shape clash" (fun () -> Obs.merge ~into:reg clash));
    t "child spans fold count, total and max" (fun () ->
        let reg = Obs.create () in
        Obs.Span.record (Obs.span reg "p") 0.5;
        let c = Obs.child reg in
        Obs.Span.record (Obs.span c "p") 0.25;
        Obs.Span.record (Obs.span c "p") 1.0;
        Obs.merge ~into:reg c;
        let spr = List.assoc "p" (Report.spans (report_of_registry reg)) in
        check_int "count" 3 spr.Report.count;
        check_float "total" 1.75 spr.Report.total_s;
        check_float "max" 1.0 spr.Report.max_s);
    t "series and events append in merge order under the event cap"
      (fun () ->
        (* The same recording once straight into one registry and once
           spread over children merged in order must dump identically,
           the cap and the dropped count included. *)
        let cap = 65536 in
        let steps =
          [
            ("root", cap - 6, [ (0., 0.) ]);
            ("a", 4, [ (1., 10.); (2., 20.) ]);
            ("b", 4, [ (3., 30.) ]);
            ("c", cap + 2, [ (4., 40.) ]);
          ]
        in
        let record reg (tag, events, points) =
          for i = 1 to events do
            Obs.event reg "ev" [ (tag, Json.num_of_int i) ]
          done;
          List.iter (fun (x, y) -> Obs.Series.push (Obs.series reg "s") x y) points
        in
        let direct = Obs.create () in
        List.iter (record direct) steps;
        let merged = Obs.create () in
        record merged (List.hd steps);
        List.iter
          (fun step ->
            let c = Obs.child merged in
            record c step;
            Obs.merge ~into:merged c)
          (List.tl steps);
        check_true "identical dumps" (dump_lines direct = dump_lines merged);
        let rep = report_of_registry merged in
        check_int "dropped past the cap" (cap + 4)
          (List.assoc "obs.events_dropped" (Report.counters rep));
        let _, xs, _ =
          List.find (fun (n, _, _) -> n = "s") (Report.series rep)
        in
        check_true "series in merge order" (xs = [| 0.; 1.; 2.; 3.; 4. |]));
    t "merged gauges replay set and observe_max" (fun () ->
        let reg = Obs.create () in
        Obs.Gauge.set (Obs.gauge reg "last") 5.;
        Obs.Gauge.observe_max (Obs.gauge reg "hw") 5.;
        let a = Obs.child reg and b = Obs.child reg in
        Obs.Gauge.set (Obs.gauge a "last") 9.;
        Obs.Gauge.set (Obs.gauge b "last") 3.;
        Obs.Gauge.observe_max (Obs.gauge a "hw") 7.;
        Obs.Gauge.observe_max (Obs.gauge b "hw") 6.;
        ignore (Obs.gauge b "unset");
        Obs.merge ~into:reg a;
        Obs.merge ~into:reg b;
        check_true "set: the last writer wins"
          (Obs.Gauge.value (Obs.gauge reg "last") = Some 3.);
        check_true "observe_max: the max is kept"
          (Obs.Gauge.value (Obs.gauge reg "hw") = Some 7.);
        check_true "an unset gauge stays unset"
          (Obs.Gauge.value (Obs.gauge reg "unset") = None));
    t "child of none is none, a child inherits the label" (fun () ->
        check_true "none" (Obs.child Obs.none == Obs.none);
        Obs.merge ~into:Obs.none (Obs.create ());
        let reg = Obs.create () in
        Obs.set_label reg "cell A";
        let c = Obs.child reg in
        check_true "enabled" (Obs.enabled c);
        Alcotest.(check string) "inherited" "cell A" (Obs.label c);
        Obs.Counter.incr (Obs.counter c "x");
        Obs.set_label c "cell B";
        Obs.Counter.incr (Obs.counter c "x");
        Alcotest.(check string) "parent label untouched" "cell A" (Obs.label reg);
        Obs.merge ~into:reg c;
        let names = List.map fst (Report.counters (report_of_registry reg)) in
        check_true "both labels" (names = [ "cell A/x"; "cell B/x" ]));
    t "Pool.init gives each task a child and restores the caller's" (fun () ->
        let reg = Obs.create () and mon = Mon.create () in
        let restored () = Obs.installed () == reg && Mon.installed () == mon in
        with_installed reg (fun () ->
            with_monitor mon (fun () ->
                List.iter
                  (fun jobs ->
                    let seen =
                      Pool.init ~jobs 6 (fun i ->
                          let mine = Obs.installed () in
                          Obs.Counter.incr (Obs.counter mine "task");
                          Obs.Series.push (Obs.series mine "order")
                            (float_of_int i) 0.;
                          let m = Mon.installed () in
                          Mon.Agreement.check
                            (Mon.Agreement.handle m ~gamma:1. ~from_time:0.)
                            ~time:1. ~skew:0.;
                          Obs.enabled mine && mine != reg && Mon.enabled m
                          && m != mon)
                    in
                    check_true "a child per task" (Array.for_all Fun.id seen);
                    check_true "caller's registry and monitor restored"
                      (restored ()))
                  [ 1; 4 ];
                (match Pool.init ~jobs:1 2 (fun _ -> failwith "boom") with
                | exception Failure _ -> ()
                | _ -> Alcotest.fail "expected the task's exception");
                check_true "restored after a raise" (restored ())));
        check_true "cleared"
          (Obs.installed () == Obs.none && Mon.installed () == Mon.none);
        check_int "every task's monitor merged" 12 (Mon.checks_performed mon);
        let rep = report_of_registry reg in
        check_int "every task counted" 12 (List.assoc "task" (Report.counters rep));
        let _, xs, _ =
          List.find (fun (n, _, _) -> n = "order") (Report.series rep)
        in
        check_true "task-index order at jobs 1 and 4"
          (xs = [| 0.; 1.; 2.; 3.; 4.; 5.; 0.; 1.; 2.; 3.; 4.; 5. |]);
        ignore (Pool.init ~jobs:4 3 (fun _ -> ()));
        check_true "untraced stays untraced"
          (Obs.installed () == Obs.none && Mon.installed () == Mon.none));
    t "profiler spans and per-occurrence series accumulate" (fun () ->
        let reg = Obs.create () in
        let p = Profile.create reg in
        check_true "active" (Profile.active p);
        check_int "passthrough" 42 (Profile.time p Profile.Fill (fun () -> 42));
        Profile.record_ns p Profile.Fill 1_000_000;
        (* A fresh profiler over the same registry continues the same
           interned instruments - the per-round case in Scale.round. *)
        Profile.record_ns (Profile.create reg) Profile.Fill 2_000_000;
        let rep = report_of_registry reg in
        let spr = List.assoc "profile.fill" (Report.spans rep) in
        check_int "three occurrences" 3 spr.Report.count;
        let _, xs, ys =
          List.find (fun (n, _, _) -> n = "profile.fill.ns") (Report.series rep)
        in
        check_true "x is the occurrence index" (xs = [| 0.; 1.; 2. |]);
        check_float "recorded ns" 1_000_000. ys.(1);
        check_float "continues across instances" 2_000_000. ys.(2));
    t "disabled profiler is an exact passthrough" (fun () ->
        check_true "inactive" (not (Profile.active Profile.disabled));
        check_int "result" 7
          (Profile.time Profile.disabled Profile.Sweep (fun () -> 7));
        Profile.record_ns Profile.disabled Profile.Checksum 5;
        check_true "time is monotone nonneg" (Profile.now_ns () >= 0));
    t "profiler timing also records when the thunk raises" (fun () ->
        let reg = Obs.create () in
        let p = Profile.create reg in
        (match Profile.time p Profile.Apply (fun () -> failwith "boom") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected the exception through");
        let rep = report_of_registry reg in
        check_int "occurrence recorded" 1
          (List.assoc "profile.apply" (Report.spans rep)).Report.count);
  ]

(* Per-task monitors: a child records like its parent, and merging the
   children in task-index order reproduces a one-monitor run. *)
let monitor_child_tests =
  let agree m = Mon.Agreement.handle m ~gamma:1.0 ~from_time:0. in
  let mint m src = Mon.Prov.mint m ~src ~dst:0 ~sent:0. ~delay:1e-3 in
  let dump_lines m = List.map Json.to_string (Mon.dump m) in
  [
    t "monitor child: counts add, firsts follow task index" (fun () ->
        let m =
          Mon.create ~checks:[ Mon.Agreement; Mon.Validity ] ~tighten:0.5 ()
        in
        let a = Mon.child m and b = Mon.child m in
        check_true "enabled" (Mon.enabled a);
        check_bool "checks inherited" false
          (Mon.Adjustment.active (Mon.Adjustment.handle a ~bound:1. ~pid:0));
        (* Task 1 records first in wall order; task 0's violation must
           still be the merged first. *)
        Mon.Agreement.check (agree b) ~time:1. ~skew:5.;
        Mon.Validity.check
          (Mon.Validity.handle b ~alpha1:1. ~alpha2:1. ~alpha3:0.1 ~t0:0.
             ~tmin0:0. ~tmax0:0.)
          ~time:1. ~min_local:1. ~max_local:3.;
        Mon.Agreement.check (agree a) ~time:2. ~skew:0.1;
        Mon.Agreement.check (agree a) ~time:3. ~skew:7.;
        Mon.merge ~into:m a;
        Mon.merge ~into:m b;
        check_int "evaluations add" 4 (Mon.checks_performed m);
        check_int "violations add" 3 (Mon.violations_total m);
        (match Mon.first_violation m with
        | Some v ->
          check_float "task 0's violation is first overall" 3. v.Mon.time;
          check_float "tighten inherited" 0.5 v.Mon.bound
        | None -> Alcotest.fail "expected a violation");
        match
          List.find_map
            (fun (c, _, _, first) -> if c = Mon.Validity then first else None)
            (Mon.results m)
        with
        | Some v ->
          check_float "task 1 holds the validity first" 3. v.Mon.measured
        | None -> Alcotest.fail "expected a validity violation");
    t "monitor merge renumbers provenance ids like a one-monitor run"
      (fun () ->
        (* The same recording straight into one monitor and spread over
           two children merged in order: identical dumps and mint counts. *)
        let task m ~src =
          let p = Array.init 3 (fun i -> mint m (src + i)) in
          let h = Mon.Adjustment.handle m ~bound:1e-6 ~pid:0 in
          Mon.Adjustment.check h ~round:1 ~time:1. ~adj:1.
            ~slots:(fun () ->
              [| { Mon.pid = src; prov = p.(1); fresh = true } |]);
          let s = Mon.Stabilization.handle m ~rounds:1 ~big_p:1. in
          Mon.Stabilization.corrupted s ~pid:src ~time:0.;
          Mon.Stabilization.observe s ~pid:src ~time:5. ~within_gamma:false
        in
        let direct = Mon.create () in
        ignore (mint direct 9);
        task direct ~src:1;
        task direct ~src:2;
        let merged = Mon.create () in
        ignore (mint merged 9);
        let a = Mon.child merged and b = Mon.child merged in
        task b ~src:2;
        task a ~src:1;
        Mon.merge ~into:merged a;
        Mon.merge ~into:merged b;
        check_true "identical dumps" (dump_lines direct = dump_lines merged);
        (match Mon.first_violation merged with
        | Some { Mon.provenance = [ (e, _) ]; _ } ->
          check_int "child id 1 shifted past the parent's one mint" 2
            e.Mon.Prov.id
        | _ -> Alcotest.fail "expected one provenance entry");
        check_int "mint count advanced by both children" (mint direct 0)
          (mint merged 0));
    t "monitor child of none is none" (fun () ->
        check_true "none" (Mon.child Mon.none == Mon.none);
        let c = Mon.create () in
        Mon.Agreement.check (agree c) ~time:1. ~skew:2.;
        Mon.merge ~into:Mon.none c;
        check_int "none stays empty" 0 (Mon.checks_performed Mon.none);
        let m = Mon.create () in
        Mon.merge ~into:m Mon.none;
        check_int "merging none is a no-op" 0 (Mon.checks_performed m));
    t "each monitor child has its own growing provenance ring" (fun () ->
        let cap = 65536 in
        let m = Mon.create () in
        let a = Mon.child m and b = Mon.child m in
        let a_ids = List.init 5 (fun i -> mint a i) in
        let minted = cap + 100 in
        for i = 0 to minted - 1 do
          ignore (mint b i)
        done;
        check_true "child B's mints evict none of child A's ids"
          (List.for_all (fun id -> Mon.Prov.find a id <> None) a_ids);
        let resolves id =
          match Mon.Prov.find b id with
          | Some e -> e.Mon.Prov.id = id && e.Mon.Prov.src = id
          | None -> false
        in
        let last = List.init cap (fun i -> minted - cap + i) in
        check_true "a grown ring resolves its last ring_cap ids"
          (List.for_all resolves last);
        check_true "older ids are evicted"
          (Mon.Prov.find b (minted - cap - 1) = None);
        check_true "ids are per monitor: the parent minted none"
          (Mon.Prov.find m 0 = None));
  ]

(* ---------- canonical traces do not depend on --jobs ---------- *)

module Scope = Csync_check.Scope
module Explorer = Csync_check.Explorer

(* Run [go] with a fresh registry installed; return the full records and
   the canonical trace as JSON lines. *)
let traced_run go =
  let reg = Obs.create () in
  with_installed reg go;
  let records = records_of_registry reg in
  ( records,
    List.map (fun r -> Json.to_string (Record.to_json r)) (Record.canonical records) )

let check_same_lines what a b =
  check_true (what ^ ": not vacuous") (List.length a > 1);
  let rec first i = function
    | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
  in
  let clip l = if String.length l <= 160 then l else String.sub l 0 160 ^ "..." in
  match first 0 (a, b) with
  | None -> ()
  | Some (i, x, y) ->
    Alcotest.failf "%s: line %d differs:\n  %s\n  %s" what i (clip x) (clip y)

let canonical_jobs_tests =
  [
    t "traced E15: canonical trace identical at jobs 1 and 4" (fun () ->
        let e15 = experiment "E15" in
        let trace jobs =
          traced_run (fun () ->
              ignore (Csync_harness.Registry.run_list ~jobs ~quick:true [ e15 ]))
        in
        let full1, canon1 = trace 1 in
        let _, canon4 = trace 4 in
        check_true "per-cell chaos.inject events recorded"
          (List.exists
             (function
               | Record.Event (n, _) -> snd (Record.split_name n) = "chaos.inject"
               | _ -> false)
             full1);
        check_same_lines "E15 canonical" canon1 canon4;
        (* The outer pool's metrics carry the pool's own (empty) label,
           not the label of whichever cell ran last. *)
        let names =
          List.filter_map
            (function
              | Record.Counter (n, _) | Record.Span (n, _) -> Some n | _ -> None)
            full1
        in
        check_true "pool.worker0" (List.mem "pool.worker0" names);
        check_true "pool.tasks.worker0" (List.mem "pool.tasks.worker0" names);
        check_true "no cell-labelled outer pool metric"
          (not
             (List.exists
                (fun n ->
                  let label, base = Record.split_name n in
                  label <> "" && (base = "pool.worker0" || base = "pool.tasks.worker0"))
                names)));
    t "monitored E5 and E13: canonical trace identical at jobs 1 and 4"
      (fun () ->
        (* As [csync trace <id> --canonical --tighten 0.3]: registry and
           monitor records, restricted to the canonical subset.  The
           violations' provenance ids and first cells must not depend on
           which worker ran which cell. *)
        let trace id jobs =
          let reg = Obs.create () and mon = Mon.create ~tighten:0.3 () in
          with_installed reg (fun () ->
              with_monitor mon (fun () ->
                  ignore
                    (Csync_harness.Registry.run_list ~jobs ~quick:true
                       [ experiment id ])));
          List.filter_map
            (fun j -> Result.to_option (Record.of_json j))
            (Obs.dump reg @ Mon.dump mon)
          |> Record.canonical
          |> List.map (fun r -> Json.to_string (Record.to_json r))
        in
        List.iter
          (fun id ->
            let canon1 = trace id 1 in
            check_true (id ^ ": provenance recorded")
              (List.exists (fun l -> contains l {|"provenance":[{|}) canon1);
            check_same_lines (id ^ " monitored canonical") canon1 (trace id 4))
          [ "E5"; "E13" ]);
    t "traced model check: canonical trace identical at jobs 1 and 4"
      (fun () ->
        let scope = { (Scope.preset_exn "divergence-n2f1") with Scope.depth = 1 } in
        let trace jobs = traced_run (fun () -> ignore (Explorer.run ~jobs scope)) in
        let _, canon1 = trace 1 in
        let _, canon4 = trace 4 in
        check_true "per-round ADJ series recorded"
          (List.exists (fun l -> contains l ".adj\"") canon1);
        check_same_lines "check canonical" canon1 canon4);
  ]

(* ---------- csync top ---------- *)

module Top = Csync_obs.Top

let top_tests =
  [
    t "top frame renders every section from a report" (fun () ->
        let rep =
          Report.of_records
            [
              Record.Manifest
                (Json.Obj
                   [
                     ("record", Json.Str "manifest");
                     ("target", Json.Str "E16");
                     ("seed", Json.num_of_int 7);
                     ("jobs", Json.num_of_int 4);
                   ]);
              Record.Series
                ( "cell/scale.spread",
                  [| 1.; 2.; 3. |],
                  [| 0.5; 0.25; 0.125 |] );
              Record.Series
                ( "cell/scale.events_per_round",
                  [| 1.; 2.; 3. |],
                  [| 10.; 10.; 10. |] );
              Record.Counter ("cell/scale.events", 30);
              Record.Counter ("chaos.dropped", 2);
              Record.Span
                ( "cell/profile.fill",
                  { Record.count = 3; total_s = 0.3; max_s = 0.2 } );
              Record.Span
                ( "cell/profile.sweep",
                  { Record.count = 3; total_s = 0.1; max_s = 0.05 } );
              Record.Monitor
                ("local_skew", { Record.checks = 10; violations = 0; first = None });
              Record.Monitor
                ("agreement", { Record.checks = 5; violations = 2; first = None });
            ]
        in
        let f = Top.frame rep ~path:"test.btrace" in
        List.iter
          (fun needle ->
            check_true (Printf.sprintf "frame mentions %S" needle)
              (contains f needle))
          [
            "csync top — E16"; "seed 7"; "jobs 4"; "cell cell"; "round 3";
            "events 30"; "scale.spread"; "scale.events_per_round"; "fill";
            "sweep"; "75"; "[ok]   local_skew"; "[FAIL] agreement";
            "chaos.dropped";
          ];
        check_true "fill bar dominates"
          (contains f "fill         ########################"));
    t "top frame degrades gracefully on an empty trace" (fun () ->
        let f = Top.frame (Report.of_records []) ~path:"x" in
        check_true "header still renders" (contains f "csync top"));
    t "top watch --once renders a written trace" (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path
              [ Record.Counter ("cell/scale.events", 3) ];
            check_true "ok" (Top.watch ~once:true path = Ok ())));
  ]

(* ---------- streaming feed + fleet collection ---------- *)

module Collect = Csync_obs.Collect

(* Cut [s] into chunks of the given sizes (clamped to >= 1); leftover
   bytes become one final chunk. *)
let rec chunks_of sizes s =
  if String.length s = 0 then []
  else
    match sizes with
    | [] -> [ s ]
    | k :: rest ->
      let k = max 1 (min k (String.length s)) in
      String.sub s 0 k :: chunks_of rest (String.sub s k (String.length s - k))

let collect_tests =
  [
    (* The tentpole streaming property: the sink writer emits only whole
       frames, so flushing (chunking) at ANY byte boundary concatenates
       to exactly the one-shot encoding, and the byte-feed reader
       decodes it identically however the chunks are cut. *)
    qcheck ~count:100
      ~name:"chunked encode at arbitrary flush points decodes one-shot"
      QCheck2.Gen.(
        pair
          (list_size (0 -- 12) record_gen)
          (list_size (0 -- 60) (int_range 1 9)))
      (fun (records, sizes) ->
        let seg = segment records in
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path records;
            read_all path = seg)
        &&
        let fd = Btrace.feed () in
        let got =
          List.concat_map
            (fun chunk ->
              Btrace.feed_bytes fd chunk;
              drain_feed fd)
            (chunks_of sizes seg)
        in
        got = records);
    t "feed_reset discards a half-written record and the intern table"
      (fun () ->
        let recs = [ Record.Counter ("run.a", 1); Record.Gauge ("run.b", 2.) ] in
        let seg = segment recs in
        let fd = Btrace.feed () in
        (* Everything but the trailing bytes: run.b's frame is cut. *)
        Btrace.feed_bytes fd (String.sub seg 0 (String.length seg - 3));
        let got = drain_feed fd in
        check_true "only whole records decoded"
          (got = [ Record.Counter ("run.a", 1) ]);
        (* After a reset the feed expects a fresh stream: a new segment
           re-interning the same names decodes cleanly. *)
        Btrace.feed_reset fd;
        Btrace.feed_bytes fd (segment [ Record.Gauge ("run.b", 7.5) ]);
        check_true "fresh stream decodes after reset"
          (drain_feed fd = [ Record.Gauge ("run.b", 7.5) ]));
    t "collector survives a stream dying mid-record" (fun () ->
        let a = Record.Counter ("run.a", 1)
        and b = Record.Gauge ("run.b", 2.5)
        and c = Record.Counter ("run.c", 3) in
        let seg = segment [ a; b; c ] in
        (* The stream dies a couple of bytes into [c]'s frames; the
           emitter restarts from scratch (fresh seq, fresh interns). *)
        let head = String.sub seg 0 (String.length (segment [ a; b ]) + 2) in
        let t' = Collect.create () in
        Collect.frame t' ~src:0 ~seq:0 ~ts_ns:100 head;
        Collect.frame t' ~src:0 ~seq:0 ~ts_ns:200
          (segment [ Record.Counter ("run.d", 9) ]);
        let s = List.hd (Collect.stats t') in
        check_int "resets" 1 s.Collect.resets;
        check_int "gaps" 0 s.Collect.gaps;
        check_int "errors" 0 s.Collect.errors;
        check_int "whole records survive, the torn one is dropped" 3
          s.Collect.records;
        check_true "reconnected stream decodes on a fresh intern table"
          (List.mem (Record.Counter ("p0/run.d", 9)) (Collect.merged t')));
    t "a lost frame desyncs a stream only until the next segment head"
      (fun () ->
        let seg1 =
          segment [ Record.Counter ("run.a", 1); Record.Gauge ("run.b", 2.) ]
        in
        let k = String.length Btrace.magic + 2 in
        let f0 = String.sub seg1 0 k in
        let f1 = String.sub seg1 k (String.length seg1 - k) in
        let t' = Collect.create () in
        Collect.frame t' ~src:3 ~seq:0 ~ts_ns:10 f0;
        (* f1 (seq 1) is lost in transit; a straggler with a later seq
           must be skipped, not decoded against the torn buffer... *)
        Collect.frame t' ~src:3 ~seq:3 ~ts_ns:15 f1;
        (* ...and the next flush's segment head resynchronizes. *)
        Collect.frame t' ~src:3 ~seq:4 ~ts_ns:20
          (segment [ Record.Counter ("run.c", 7) ]);
        let s = List.hd (Collect.stats t') in
        check_true "gap counted" (s.Collect.gaps >= 1);
        check_true "lost frames counted" (s.Collect.lost >= 1);
        check_int "straggler skipped" 1 s.Collect.skipped;
        check_int "resync decoded the new segment" 1 s.Collect.records;
        check_int "no resets from loss alone" 0 s.Collect.resets);
    t "merged fleet trace is canonical across stream arrival orders"
      (fun () ->
        (* Two nodes emit the SAME metric names with different values:
           per-node feeds keep the clashing intern tables apart, and the
           (ts, src, seq, idx) merge key makes the output byte-identical
           for any interleaving that preserves per-node frame order. *)
        let node_frames src v =
          [
            (src, 0, 100 + src, segment [ Record.Counter ("run.a", v) ]);
            ( src,
              1,
              300 + src,
              segment
                [
                  Record.Gauge ("net.delay", float_of_int v /. 8.);
                  Record.Counter ("run.a", v + 1);
                ] );
          ]
        in
        let f0 = node_frames 0 1 and f1 = node_frames 1 40 in
        let feed_all frames =
          let t' = Collect.create () in
          List.iter
            (fun (src, seq, ts_ns, p) -> Collect.frame t' ~src ~seq ~ts_ns p)
            frames;
          t'
        in
        (* node0 first vs perfectly interleaved vs node1 first *)
        let orders =
          [
            f0 @ f1;
            f1 @ f0;
            (match (f0, f1) with
            | [ a0; a1 ], [ b0; b1 ] -> [ b0; a0; a1; b1 ]
            | _ -> assert false);
          ]
        in
        let bytes_of frames =
          let t' = feed_all frames in
          with_tmp ".btrace" (fun path ->
              Collect.write_merged t' path;
              read_all path)
        in
        (match List.map bytes_of orders with
        | first :: rest ->
          List.iteri
            (fun i b ->
              check_true
                (Printf.sprintf "order %d byte-identical" (i + 1))
                (b = first))
            rest
        | [] -> assert false);
        let m = Collect.merged (feed_all (f0 @ f1)) in
        check_true "p0 keeps its own values"
          (List.mem (Record.Counter ("p0/run.a", 1)) m);
        check_true "p1 keeps its own values"
          (List.mem (Record.Counter ("p1/run.a", 40)) m);
        check_true "accounting is appended"
          (List.mem (Record.Counter ("p1/collect.frames", 2)) m));
    t "fleet skew pairing cancels the symmetric delay" (fun () ->
        let xs = Array.init 10 float_of_int in
        let recs =
          [
            Record.Manifest
              (Json.Obj
                 [
                   ("record", Json.Str "manifest");
                   ("target", Json.Str "fleet");
                   ("nodes", Json.Arr [ Json.num_of_int 0; Json.num_of_int 1 ]);
                   ("params", Json.Obj [ ("gamma", Json.Num 0.1) ]);
                 ]);
            (* A symmetric 20 ms transit delay plus a true 20 ms skew:
               p0 sees p1 early by skew+delay, p1 sees p0 late. *)
            Record.Series ("p0/fleet.offset.p1", xs, Array.make 10 0.03);
            Record.Series ("p1/fleet.offset.p0", xs, Array.make 10 (-0.01));
            (* One-directional data must be reported, not silently paired. *)
            Record.Series ("p0/fleet.offset.p2", xs, Array.make 10 0.5);
          ]
        in
        let r = Report.of_records recs in
        let f = Report.fleet r in
        check_true "gamma read from manifest params"
          (f.Report.fleet_gamma = Some 0.1);
        (match f.Report.fleet_pairs with
        | [ p ] ->
          check_int "pair a" 0 p.Report.node_a;
          check_int "pair b" 1 p.Report.node_b;
          check_float "delay cancelled" 0.02 p.Report.measured
        | ps -> Alcotest.failf "expected 1 pair, got %d" (List.length ps));
        check_float "fleet max" 0.02 f.Report.fleet_max;
        check_true "unpaired direction surfaced"
          (List.mem (0, 2) f.Report.fleet_unpaired);
        let out = Format.asprintf "%a" Report.render_fleet r in
        check_true "verdict rendered" (contains out "within gamma");
        check_true "pair row rendered" (contains out "p0"));
  ]

(* ---------- allocation on the traced path ---------- *)

module Cluster = Csync_process.Cluster
module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance
module Adversary = Csync_core.Adversary
module Env = Csync_harness.Env
module Sampling = Csync_harness.Sampling
module Histogram = Csync_metrics.Histogram

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The benchmark's traced cast: n = 16, f = 5 - one silent, one two-faced,
   three pulling by beta on seeded pids - with drifting clocks and uniform
   delays over 10 rounds, the online agreement and validity monitors fed
   every sample.  Built with whatever registry and monitor are installed;
   returns the minor words the simulation alone allocated and the number
   of messages it sent. *)
let traced_cast_words ~seed =
  let n = 16 and f = 5 and rounds = 10 in
  let params = Csync_harness.Defaults.base ~n ~f () in
  let beta = params.Params.beta in
  let rng = Csync_sim.Rng.create seed in
  let pids = Array.init n Fun.id in
  Csync_sim.Rng.shuffle rng pids;
  let role pid =
    let rec find i =
      if i >= f then None else if pids.(i) = pid then Some i else find (i + 1)
    in
    find 0
  in
  let env =
    Env.make ~params ~seed ~clock_kind:Env.Drifting
      ~delay_kind:Env.Uniform_delay
      ~is_faulty:(fun p -> role p <> None)
      ~offset_spread:(0.9 *. beta) ~rounds
  in
  let cfg = Maintenance.config params in
  let procs =
    Array.init n (fun pid ->
        match role pid with
        | Some 0 -> Adversary.silent ()
        | Some 1 -> Adversary.two_faced ~params ~spread:beta ~split:(n / 2)
        | Some _ -> Adversary.pull ~params ~offset:beta
        | None -> Maintenance.create ~self:pid cfg |> fst)
  in
  let cluster =
    Cluster.create ~clocks:env.Env.clocks ~delay:env.Env.delay ~procs ()
  in
  Cluster.schedule_starts_at_logical cluster ~t0:params.Params.t0
    ~corrs:(Array.make n 0.);
  let tmin0 = Env.tmin0 env and tmax0 = Env.tmax0 env in
  let times =
    Sampling.grid ~from_time:tmax0 ~to_time:(env.Env.horizon -. 1.)
      ~count:(rounds * 4)
  in
  let mon = Mon.installed () in
  let agree =
    Mon.Agreement.handle mon ~gamma:(Params.gamma params) ~from_time:tmax0
  in
  let alpha1, alpha2, alpha3 = Params.validity params in
  let valid =
    Mon.Validity.handle mon ~alpha1 ~alpha2 ~alpha3 ~t0:params.Params.t0
      ~tmin0 ~tmax0
  in
  let on_sample (s : Sampling.sample) =
    Mon.Agreement.check agree ~time:s.time ~skew:s.skew;
    Mon.Validity.check valid ~time:s.time ~min_local:s.min_local
      ~max_local:s.max_local
  in
  let words =
    minor_words (fun () ->
        ignore
          (Sampling.run ~on_sample ~cluster ~observe:env.Env.nonfaulty ~times ()))
  in
  (words, Cluster.messages_sent cluster)

let alloc_tests =
  [
    t "traced cast adds <= 4 words/msg" (fun () ->
        let plain, messages = traced_cast_words ~seed:7 in
        let reg = Obs.create () and mon = Mon.create () in
        let traced, messages' =
          with_installed reg (fun () ->
              with_monitor mon (fun () -> traced_cast_words ~seed:7))
        in
        check_int "same run" messages messages';
        check_true "monitors checked" (Mon.checks_performed mon > 0);
        check_int "no violations" 0 (Mon.violations_total mon);
        let extra = (traced -. plain) /. float_of_int messages in
        if not (extra <= 4.) then
          Alcotest.failf "%.2f extra minor words per message over %d messages"
            extra messages);
    t "prov mint, hist add allocate 0" (fun () ->
        let mon = Mon.create () in
        let mint () =
          for i = 1 to 70_000 do
            ignore
              (Mon.Prov.mint mon ~src:(i land 15) ~dst:3 ~sent:1.5 ~delay:0.25)
          done
        in
        (* Fill the ring to its cap, so that no measured mint grows it. *)
        mint ();
        Alcotest.(check (float 0.)) "mint" 0. (minor_words mint);
        let lin = Histogram.create ~lo:0. ~hi:1. ~bins:20 in
        let log = Histogram.log ~lo:1e-6 ~hi:1. ~per_decade:8 in
        let add () =
          for _ = 1 to 1000 do
            Histogram.add lin 0.375;
            Histogram.add lin 7.;
            Histogram.add log 0.002;
            Histogram.add log Float.nan
          done
        in
        Alcotest.(check (float 0.)) "add" 0. (minor_words add));
  ]

let suite =
  json_tests @ registry_tests @ manifest_tests @ report_tests
  @ forward_compat_tests @ monitor_tests @ provenance_tests @ diff_tests
  @ determinism_tests @ btrace_tests @ btrace_intern_tests @ btrace_codec_tests
  @ child_profile_tests
  @ monitor_child_tests
  @ canonical_jobs_tests @ collect_tests
  @ top_tests @ alloc_tests
