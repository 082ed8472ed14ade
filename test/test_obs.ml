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

module Btrace = Csync_obs.Btrace

let with_tmp suffix f =
  let path = Filename.temp_file "csync_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let append_bytes path bytes =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc bytes;
  close_out oc

(* Records through the container [csync trace] writes and the reader
   [csync report] uses. *)
let report_of_btrace records =
  with_tmp ".btrace" (fun path ->
      Btrace.write_file path records;
      Report.of_file path)

(* One line per record, as [csync report --json] prints them. *)
let render_lines records =
  List.map (fun r -> Json.to_string (Record.to_json r)) records

let json_exn text =
  match Json.of_string text with Ok j -> j | Error e -> failwith e

let counter_names records =
  List.filter_map (function Record.Counter (n, _) -> Some n | _ -> None) records

(* Each record renders, parses back to itself, and is a kind the reader
   knows: nothing a capture writes is skipped with a warning. *)
let check_round_trips records =
  List.iter
    (fun r ->
      let line = Json.to_string (Record.to_json r) in
      match Result.bind (Json.of_string line) Record.of_json with
      | Ok (Record.Unknown (kind, _)) ->
        Alcotest.failf "unknown kind %S in %s" kind line
      | Ok r' -> check_true ("round-trips " ^ line) (compare r' r = 0)
      | Error e -> Alcotest.failf "bad record %s: %s" line e)
    records

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
        (* The writer carries a record of unknown kind as embedded JSON,
           which smuggles the malformed hist past the typed encoder. *)
        check_true "report rejects it"
          (Result.is_error
             (report_of_btrace
                [ Record.Unknown ("hist", json_exn (line "[1.5]")) ])));
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
        check_int "no records" 0 (List.length (Obs.records r)));
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
        let names = counter_names (Obs.records r) in
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
        let records = Obs.records r in
        check_round_trips records;
        check_true "dump renders the records"
          (Obs.dump r = List.map Record.to_json records);
        check_true "sorted" (counter_names records = [ "a"; "b" ]));
    t "event cap drops excess and reports it" (fun () ->
        let r = Obs.create () in
        for _ = 1 to 65537 do
          Obs.event r "e" []
        done;
        check_true "dropped counter present"
          (List.mem "obs.events_dropped" (counter_names (Obs.records r))));
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
        match Record.of_json m with
        | Ok (Record.Manifest _) -> ()
        | Ok _ -> Alcotest.fail "manifest decoded as another kind"
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
        let parsed =
          Report.of_records
            (Record.Manifest
               (Manifest.make ~target:"test" ~seed:42 ~jobs:1 ~quick:true ())
            :: Obs.records r)
        in
        let out = Format.asprintf "%a" (Report.render ?focus:None) parsed in
        check_true "manifest section" (contains out "== Manifest ==");
        check_true "skew timeline" (contains out "run.skew");
        check_true "adj table" (contains out "ADJ per round");
        check_true "delay histogram" (contains out "net.delay");
        check_true "sim counter" (contains out "sim.events"));
    t "malformed records are rejected with a record number" (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path
              [ Record.Manifest (json_exn {|{"record":"manifest"}|}) ];
            (* One JSONREC frame (length 6, tag 1) holding broken JSON. *)
            append_bytes path "\006\001{oops";
            match Report.of_file path with
            | Ok _ -> Alcotest.fail "expected parse error"
            | Error e ->
              check_true "names record 2" (contains e "record 2");
              check_true "names the cause" (contains e "embedded JSON");
              check_true "one line" (not (String.contains e '\n'))));
    t "empty and manifest-only traces render" (fun () ->
        (match report_of_btrace [] with
        | Error e -> Alcotest.failf "empty trace: %s" e
        | Ok t ->
          let out = Format.asprintf "%a" (Report.render ?focus:None) t in
          check_true "notes the missing manifest"
            (contains out "no manifest record"));
        let m = Manifest.make ~target:"E1" ~seed:1 ~jobs:1 ~quick:true () in
        match report_of_btrace [ Record.Manifest m ] with
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
        let records =
          [
            Record.Manifest
              (json_exn
                 {|{"record":"manifest","schema":"csync-trace/1","target":"E1"}|});
            Record.Unknown
              ( "flux_capacitor",
                json_exn {|{"record":"flux_capacitor","name":"x","value":88}|}
              );
            Record.Counter ("c", 3);
          ]
        in
        match report_of_btrace records with
        | Error e -> Alcotest.failf "reader should not fail: %s" e
        | Ok t ->
          check_int "counter still read" 1 (List.length (Report.counters t));
          check_int "one warning" 1 (List.length (Report.warnings t));
          let w = List.hd (Report.warnings t) in
          check_true "warning names the kind" (contains w "flux_capacitor");
          check_true "warning names the record" (contains w "record 2"));
    t "unknown manifest fields are skipped with a warning" (fun () ->
        let m =
          json_exn
            {|{"record":"manifest","schema":"csync-trace/1","hovercraft":true}|}
        in
        match report_of_btrace [ Record.Manifest m ] with
        | Error e -> Alcotest.failf "reader should not fail: %s" e
        | Ok t ->
          check_int "one warning" 1 (List.length (Report.warnings t));
          check_true "warning names the field"
            (contains (List.hd (Report.warnings t)) "hovercraft"));
    t "every captured record is a known kind that round-trips" (fun () ->
        (* What the reader would skip with a warning is still a bug in
           anything this build captured: a monitored run with violations
           (provenance included) renders and decodes to itself. *)
        let reg = Obs.create () and m = Mon.create ~tighten:1e-6 () in
        with_installed reg (fun () ->
            with_monitor m (fun () ->
                let scenario =
                  Csync_harness.Scenario.default ~seed:42 (params ())
                in
                ignore
                  (Csync_harness.Scenario.run
                     { scenario with Csync_harness.Scenario.rounds = 6 })));
        check_true "violations captured" (Mon.violations_total m > 0);
        check_round_trips (Obs.records reg @ Mon.records m));
    t "truncated and shape-broken records give one-line errors" (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path [ Record.Counter ("c", 1) ];
            let whole = read_all path in
            with_tmp ".cut" (fun cut ->
                append_bytes cut (String.sub whole 0 (String.length whole - 1));
                match Report.of_file cut with
                | Ok _ -> Alcotest.fail "expected error"
                | Error e ->
                  check_true "names truncation" (contains e "truncated");
                  check_true "names record 1" (contains e "record 1")));
        match
          report_of_btrace
            [
              Record.Unknown
                ( "series",
                  json_exn {|{"record":"series","name":"s","xs":[1],"ys":[1,2]}|}
                );
            ]
        with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e ->
          check_true "mismatch named" (contains e "mismatch");
          check_true "one line" (not (String.contains e '\n')));
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
        check_int "no records" 0 (List.length (Mon.records m)));
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
        let records = Mon.records m in
        check_int "one record per check" 7 (List.length records);
        check_true "dump renders the records"
          (Mon.dump m = List.map Record.to_json records);
        match report_of_btrace records with
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
   in memory - manifest + registry records + monitor records, exactly
   what [csync trace] writes - and folded by the reader. *)
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
    Report.of_records
      (Record.Manifest
         (Manifest.make ~target:"scenario" ~seed ~jobs:1 ~quick:true ())
      :: (Obs.records reg @ Mon.records m))
  in
  let manifest_only ~target =
    Report.of_records
      [ Record.Manifest (Manifest.make ~target ~seed:1 ~jobs:1 ~quick:true ()) ]
  in
  let render a b =
    Format.asprintf "%a"
      (fun ppf () -> Diff.render ppf ~name_a:"a.btrace" ~name_b:"b.btrace" a b)
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
          Report.of_records
            [
              Record.Manifest
                (Manifest.make ~target:"scenario" ~seed:1 ~jobs:1 ~quick:true ());
              Record.Counter ("E/run.rounds", 6);
              Record.Series ("E/profile.fill.ns", [| 1.; 2. |], [| v; v +. 7. |]);
              Record.Span
                ("E/phase.drain", { Record.count = 8; total_s = v; max_s = v });
              Record.Gauge ("E/engine.wheel.depth", v);
            ]
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
    t "report rejects a JSONL file with a one-line bad-magic error" (fun () ->
        check_true "btrace reads"
          (Result.is_ok (report_of_btrace [ Record.Counter ("a", 1) ]));
        with_tmp ".jsonl" (fun path ->
            append_bytes path "{\"record\":\"counter\",\"name\":\"a\",\"value\":1}\n";
            match Report.of_file path with
            | Ok _ -> Alcotest.fail "a JSONL file must not load"
            | Error e ->
              check_true "names the magic" (contains e "bad magic");
              check_true "one line" (not (String.contains e '\n'))));
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
                (* A feed awaits the rest at the cut, stably, and decodes
                   the record once the tail arrives. *)
                let fd = Btrace.feed () in
                Btrace.feed_bytes fd (read_all cut);
                (match Btrace.feed_next fd with
                | `Record (Record.Counter ("whole", 7)) -> ()
                | _ -> Alcotest.fail "expected the whole record first");
                check_true "awaits" (Btrace.feed_next fd = `Await);
                check_true "stable on retry" (Btrace.feed_next fd = `Await);
                Btrace.feed_bytes fd
                  (String.sub bytes (String.length bytes - 4) 4);
                (match Btrace.feed_next fd with
                | `Record (Record.Series ("tail", _, _)) -> ()
                | _ -> Alcotest.fail "expected the tail record once whole");
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

(* ---------- per-task children ---------- *)

module Pool = Csync_harness.Pool

let report_of_registry reg = Report.of_records (Obs.records reg)

let dump_lines reg = render_lines (Obs.records reg)

let child_tests =
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
  ]

(* Per-task monitors: a child records like its parent, and merging the
   children in task-index order reproduces a one-monitor run. *)
let monitor_child_tests =
  let agree m = Mon.Agreement.handle m ~gamma:1.0 ~from_time:0. in
  let mint m src = Mon.Prov.mint m ~src ~dst:0 ~sent:0. ~delay:1e-3 in
  let dump_lines m = render_lines (Mon.records m) in
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
  let records = Obs.records reg in
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
          Record.canonical (Obs.records reg @ Mon.records mon) |> render_lines
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
    t "traced cast allocates <= 60 words/msg" (fun () ->
        (* The simulation alone, telemetry off: delivery, engine, delay
           draws and the automaton (in-place ARR, allocation-free sort). *)
        let words, messages = traced_cast_words ~seed:7 in
        let per_msg = words /. float_of_int messages in
        if not (per_msg <= 60.) then
          Alcotest.failf "%.2f minor words per message over %d messages"
            per_msg messages);
    t "maintenance arrival allocates <= 3 words" (fun () ->
        (* [handle] writes ARR in place and returns the same state: a
           message costs only the (state, []) result pair. *)
        let params = Csync_harness.Defaults.base ~n:16 ~f:5 () in
        let cfg = Maintenance.config params in
        let msgs =
          Array.init 16 (fun src -> Csync_process.Automaton.Message (src, 1.))
        in
        let phys = 2.5 in
        let s = ref (Maintenance.initial_state cfg ~self:0) in
        let deliver () =
          for k = 0 to 9_999 do
            s := fst (Maintenance.handle cfg ~self:0 ~phys msgs.(k land 15) !s)
          done
        in
        deliver ();
        let per_msg = minor_words deliver /. 10_000. in
        if not (per_msg <= 3.) then
          Alcotest.failf "%.2f minor words per message" per_msg;
        check_true "recorded" (Array.for_all Fun.id (Maintenance.fresh !s)));
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
    t "per-link grid add allocates 0" (fun () ->
        let g = Histogram.Grid.create ~lo:0. ~hi:1. ~bins:20 ~n:16 in
        let h =
          Obs.hist_grid (Obs.create ()) ~lo:0. ~hi:1. ~bins:20 ~n:16 "d"
        in
        let add () =
          for i = 1 to 1000 do
            Histogram.Grid.add g ~src:(i land 15) ~dst:3 0.375;
            Histogram.Grid.add g ~src:2 ~dst:(i land 15) Float.nan;
            Obs.Grid.add h ~src:(i land 15) ~dst:(8 + (i land 7)) 0.875;
            Obs.Grid.add h ~src:5 ~dst:5 (-1.)
          done
        in
        Alcotest.(check (float 0.)) "add" 0. (minor_words add);
        check_int "recorded" 1000 (Obs.Grid.count h ~src:5 ~dst:5));
  ]

(* ---------- per-link histogram grids ---------- *)

(* The reference the grid replaces: one named histogram per link, minted
   under the per-link names the grid dumps. *)
let link_name name src dst = Printf.sprintf "%s.%d->%d" name src dst

let mint_named reg ~lo ~hi ~bins ~n name =
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      ignore (Obs.hist reg ~lo ~hi ~bins (link_name name src dst))
    done
  done

let add_named reg ~lo ~hi ~bins name ~src ~dst v =
  Obs.Hist.add (Obs.hist reg ~lo ~hi ~bins (link_name name src dst)) v

let same_dump a b = compare (Obs.records a) (Obs.records b) = 0

(* A traced n = 4 run's per-link records, as n * n named histograms
   dumped them.  Pinned so the family's names, order and fields stay
   put. *)
let golden_n4 =
  [
    {|{"record":"hist","name":"net.delay.0->0","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[1,0,0,0,0,0,0,2,0,0,0,0,1,0,0,0,1,0,0,1],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.0->1","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,2,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,1,1],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.0->2","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,1,0,0,0,0,0,0,0,2,0,3,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.0->3","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,1,0,0,0,2,0,0,1,0,0,0,0,0,0,1,0,0,0,1],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.1->0","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,0,0,3,0,1,0,0,0,1,0,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":5}|};
    {|{"record":"hist","name":"net.delay.1->1","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,0,0,0,0,1,0,0,0,0,2,1,0,0,1,0,0],"underflow":0,"overflow":0,"invalid":0,"total":5}|};
    {|{"record":"hist","name":"net.delay.1->2","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,1,1,0,0,0,0,1,1,0,0,0,1,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":5}|};
    {|{"record":"hist","name":"net.delay.1->3","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,1,0,0,0,1,0,0,0,0,0,0,0,1,0,1,0,1,0,0],"underflow":0,"overflow":0,"invalid":0,"total":5}|};
    {|{"record":"hist","name":"net.delay.2->0","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,1,0,0,0,0,0,1,0,1,0,0,0,0,0,0,1,1,1,0],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.2->1","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,1,0,1,1,0,0,0,0,0,0,0,0,1,1,0,1,0],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.2->2","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[1,1,0,0,0,0,1,0,0,0,1,0,0,2,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.2->3","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[1,0,0,0,0,0,1,1,0,0,2,1,0,0,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":6}|};
    {|{"record":"hist","name":"net.delay.3->0","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":0}|};
    {|{"record":"hist","name":"net.delay.3->1","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":0}|};
    {|{"record":"hist","name":"net.delay.3->2","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":0}|};
    {|{"record":"hist","name":"net.delay.3->3","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"underflow":0,"overflow":0,"invalid":0,"total":0}|};
  ]

let grid_tests =
  let lo = 1. and hi = 2. in
  let value =
    QCheck2.Gen.(
      oneof
        [
          oneofl [ Float.nan; lo; hi; lo -. 0.25; hi +. 0.25 ];
          float_range lo hi;
        ])
  in
  let adds =
    QCheck2.Gen.(list_size (0 -- 40) (triple (0 -- 19) (0 -- 19) value))
  in
  [
    qcheck ~count:200 ~name:"grid dumps what n^2 named hists dump"
      QCheck2.Gen.(
        tup6 (1 -- 20)
          (triple (1 -- 20) (1 -- 12) (oneofl [ (lo, hi); (0.5, 3.) ]))
          (1 -- 12) adds adds
          (pair (oneofl [ ""; "E6"; "E1/eps=0.0001" ])
             (list_size (0 -- 4)
                (oneofl
                   [ "net.delay"; "net.delay.z"; "net.delay.1"; "net.delay.10";
                     "net.delay.2->"; "a"; "z" ]))))
      (fun (n, (n2, bins2, (lo2, hi2)), bins, first, second, (label, others)) ->
        let reference = Obs.create () and grid = Obs.create () in
        List.iter
          (fun r ->
            Obs.set_label r label;
            List.iter
              (fun name ->
                Obs.Hist.add (Obs.hist r ~lo:0. ~hi:1. ~bins:3 name) 0.5)
              others)
          [ reference; grid ];
        let h = Obs.hist_grid grid ~lo ~hi ~bins ~n "net.delay" in
        mint_named reference ~lo ~hi ~bins ~n "net.delay";
        let record h m adds =
          List.iter
            (fun (src, dst, v) ->
              let src = src mod m and dst = dst mod m in
              Obs.Grid.add h ~src ~dst v;
              add_named reference ~lo ~hi ~bins "net.delay" ~src ~dst v)
            adds
        in
        record h n first;
        (* Re-minting keeps the first window and the first handle valid; a
           grid cannot give new links another window. *)
        match
          Obs.hist_grid grid ~lo:lo2 ~hi:hi2 ~bins:bins2 ~n:n2 "net.delay"
        with
        | exception Invalid_argument _ ->
          n2 > n && (lo2, hi2, bins2) <> (lo, hi, bins)
        | h2 ->
          mint_named reference ~lo:lo2 ~hi:hi2 ~bins:bins2 ~n:n2 "net.delay";
          let m = max n n2 in
          record h m (List.filteri (fun i _ -> i land 1 = 0) second);
          record h2 m (List.filteri (fun i _ -> i land 1 = 1) second);
          same_dump reference grid);
    qcheck ~count:100 ~name:"grid merge in task order = direct"
      QCheck2.Gen.(list_size (1 -- 4) (pair (1 -- 14) adds))
      (fun tasks ->
        let direct = Obs.create () and parent = Obs.create () in
        Obs.set_label direct "E6";
        Obs.set_label parent "E6";
        let run reg (n, adds) =
          let h = Obs.hist_grid reg ~lo ~hi ~bins:5 ~n "net.delay" in
          List.iter
            (fun (s, d, v) -> Obs.Grid.add h ~src:(s mod n) ~dst:(d mod n) v)
            adds
        in
        List.iter (run direct) tasks;
        (* The parent records the first task itself, children the rest. *)
        run parent (List.hd tasks);
        List.iter
          (fun task ->
            let c = Obs.child parent in
            run c task;
            Obs.merge ~into:parent c)
          (List.tl tasks);
        same_dump direct parent);
    t "grid window clash raises" (fun () ->
        let reg = Obs.create () in
        let h = Obs.hist_grid reg ~lo:1. ~hi:2. ~bins:4 ~n:3 "d" in
        List.iter
          (fun (lo, hi, bins) ->
            check_raises_invalid "growth" (fun () ->
                Obs.hist_grid reg ~lo ~hi ~bins ~n:4 "d");
            let c = Obs.child reg in
            ignore (Obs.hist_grid c ~lo ~hi ~bins ~n:3 "d");
            check_raises_invalid "merge" (fun () -> Obs.merge ~into:reg c))
          [ (0., 2., 4); (1., 3., 4); (1., 2., 5) ];
        check_raises_invalid "link" (fun () ->
            Obs.Grid.add h ~src:3 ~dst:0 1.5);
        check_raises_invalid "n" (fun () ->
            Histogram.Grid.create ~lo:1. ~hi:2. ~bins:4 ~n:0));
    t "disabled registry: no-op grid" (fun () ->
        let h = Obs.hist_grid Obs.none ~lo:1. ~hi:2. ~bins:4 ~n:3 "d" in
        check_true "inactive" (not (Obs.Grid.active h));
        Obs.Grid.add h ~src:7 ~dst:9 1.5;
        check_int "count" 0 (Obs.Grid.count h ~src:7 ~dst:9);
        check_int "nothing dumped" 0 (List.length (Obs.records Obs.none)));
    t "per-link hist golden, n = 4" (fun () ->
        let module Scenario = Csync_harness.Scenario in
        let params = Csync_harness.Defaults.base ~n:4 ~f:1 () in
        let scenario =
          {
            (Scenario.with_standard_faults (Scenario.default ~seed:11 params))
            with
            Scenario.rounds = 3;
            samples_per_round = 2;
          }
        in
        let reg = Obs.create () in
        with_installed reg (fun () -> ignore (Scenario.run scenario));
        let links =
          List.filter
            (function
              | Record.Hist (name, _) ->
                String.starts_with ~prefix:"net.delay." name
              | _ -> false)
            (Obs.records reg)
          |> render_lines
        in
        Alcotest.(check (list string)) "per-link records" golden_n4 links);
  ]

(* ---------- the JSON rendering ---------- *)

(* One record of every kind, and the lines [csync report --json] prints
   for them.  Pinned so the renderer's field order and number format
   stay put: golden diffs and CI greps read these lines. *)
let golden_records =
  [
    Record.Manifest
      (Json.Obj
         [
           ("record", Json.Str "manifest");
           ("schema", Json.Str "csync-trace/1");
           ("target", Json.Str "E1");
           ("seed", Json.num_of_int 7);
           ("quick", Json.Bool true);
         ]);
    Record.Counter ("E1/sim.events", 1519);
    Record.Counter ("obs.events_dropped", 2048);
    Record.Gauge ("E1/engine.wheel.depth", 0.25);
    Record.Series
      ("E1/run.skew", [| 0.; 0.5; 1. |], [| 1e-4; 3.5e-5; -2.25e-6 |]);
    Record.Hist
      ( "E1/net.delay.0->1",
        {
          Record.lo = 9e-4;
          hi = 1.1e-3;
          per_decade = None;
          counts = [| 0; 3; 1; 0 |];
          underflow = 1;
          overflow = 0;
          invalid = 2;
          total = 7;
        } );
    Record.Hist
      ( "E1/run.skew.hist",
        {
          Record.lo = 1e-9;
          hi = 1e-3;
          per_decade = Some 4;
          counts = [| 1; 0; 2 |];
          underflow = 0;
          overflow = 0;
          invalid = 0;
          total = 3;
        } );
    Record.Span
      ( "E1/phase.drain",
        { Record.count = 8; total_s = 0.001234567; max_s = 0.000250001 } );
    Record.Event
      ( "E1/chaos.inject",
        Json.Obj
          [
            ("pid", Json.num_of_int 3);
            ("kind", Json.Str "crash");
            ("at", Json.Num 2.5);
          ] );
    Record.Monitor
      ("agreement", { Record.checks = 12; violations = 0; first = None });
    Record.Monitor
      ( "adjustment",
        {
          Record.checks = 40;
          violations = 1;
          first =
            Some
              (Json.Obj
                 [
                   ("label", Json.Str "E5a");
                   ("round", Json.num_of_int 2);
                   ("pid", Json.Null);
                   ("time", Json.Num 1.0625);
                   ("measured", Json.Num 3e-4);
                   ("bound", Json.Num 1e-4);
                   ( "provenance",
                     Json.Arr
                       [
                         Json.Obj
                           [
                             ("id", Json.num_of_int 3);
                             ("src", Json.num_of_int 1);
                             ("dst", Json.num_of_int 0);
                             ("sent", Json.Num 1.);
                             ("delay", Json.Num 1e-3);
                             ("fresh", Json.Bool true);
                             ("faults", Json.Arr [ Json.Str "reorder" ]);
                           ];
                       ] );
                 ]);
        } );
    Record.Unknown
      ( "flux_capacitor",
        Json.Obj
          [ ("record", Json.Str "flux_capacitor"); ("value", Json.num_of_int 88) ]
      );
  ]

let golden_json =
  [
    {|{"record":"manifest","schema":"csync-trace/1","target":"E1","seed":7,"quick":true}|};
    {|{"record":"counter","name":"E1/sim.events","value":1519}|};
    {|{"record":"counter","name":"obs.events_dropped","value":2048}|};
    {|{"record":"gauge","name":"E1/engine.wheel.depth","value":0.25}|};
    {|{"record":"series","name":"E1/run.skew","xs":[0,0.5,1],"ys":[0.0001,3.4999999999999997e-05,-2.2500000000000001e-06]}|};
    {|{"record":"hist","name":"E1/net.delay.0->1","lo":0.00089999999999999998,"hi":0.0011000000000000001,"counts":[0,3,1,0],"underflow":1,"overflow":0,"invalid":2,"total":7}|};
    {|{"record":"hist","name":"E1/run.skew.hist","lo":1.0000000000000001e-09,"hi":0.001,"per_decade":4,"counts":[1,0,2],"underflow":0,"overflow":0,"invalid":0,"total":3}|};
    {|{"record":"span","name":"E1/phase.drain","count":8,"total_s":0.001234567,"max_s":0.00025000100000000002}|};
    {|{"record":"event","name":"E1/chaos.inject","fields":{"pid":3,"kind":"crash","at":2.5}}|};
    {|{"record":"monitor","monitor":"agreement","checks":12,"violations":0,"first":null}|};
    {|{"record":"monitor","monitor":"adjustment","checks":40,"violations":1,"first":{"label":"E5a","round":2,"pid":null,"time":1.0625,"measured":0.00029999999999999997,"bound":0.0001,"provenance":[{"id":3,"src":1,"dst":0,"sent":1,"delay":0.001,"fresh":true,"faults":["reorder"]}]}}|};
    {|{"record":"flux_capacitor","value":88}|};
  ]

let render_tests =
  [
    t "--json rendering of a fixed record list is pinned" (fun () ->
        Alcotest.(check (list string))
          "rendered" golden_json (render_lines golden_records);
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path golden_records;
            match
              Btrace.fold_file path ~init:[] ~f:(fun acc r -> r :: acc)
            with
            | Error e -> Alcotest.fail e
            | Ok rev ->
              Alcotest.(check (list string))
                "through btrace" golden_json
                (render_lines (List.rev rev))));
  ]

(* ---------- a full traced capture ---------- *)

(* The capture the bench's trace-capture-traced kernel encodes: one
   monitored run of the standard Byzantine cast at n = 16, f = 5 over 10
   rounds - 257 hists (256 per-link delays), 23 series, 5 counters, 2
   gauges and 7 monitors. *)
let traced_capture =
  lazy
    (let module Scenario = Csync_harness.Scenario in
     let params = Csync_harness.Defaults.base ~n:16 ~f:5 () in
     let scenario =
       {
         (Scenario.with_standard_faults (Scenario.default ~seed:1 params)) with
         Scenario.rounds = 10;
         samples_per_round = 4;
       }
     in
     let reg = Obs.create () and mon = Mon.create () in
     with_installed reg (fun () ->
         with_monitor mon (fun () -> ignore (Scenario.run scenario)));
     Obs.records reg @ Mon.records mon)

let capture_tests =
  [
    t "traced capture btrace is pinned" (fun () ->
        let records = Lazy.force traced_capture in
        check_int "records" 294 (List.length records);
        let bytes = segment records in
        check_int "length" 14499 (String.length bytes);
        Alcotest.(check string)
          "digest" "8b31c071b75a4fb8cedc7349e73b4f34"
          (Digest.to_hex (Digest.string bytes));
        let fd = Btrace.feed () in
        Btrace.feed_bytes fd bytes;
        check_true "decodes to the input" (compare (drain_feed fd) records = 0));
    t "capture encode allocates <= 24 words/rec" (fun () ->
        (* A fresh writer's whole cost: its trie, cursors and the batches
           it hands the sink (here discarded). *)
        let records = Lazy.force traced_capture in
        let encode () =
          let w = Btrace.writer_fn ignore in
          List.iter (Btrace.write w) records;
          Btrace.close_writer w
        in
        encode ();
        let per_rec =
          minor_words encode /. float_of_int (List.length records)
        in
        if not (per_rec <= 24.) then
          Alcotest.failf "%.2f minor words per record" per_rec);
  ]

(* ---------- JSON decoding ---------- *)

(* Reference decoder: each field looked up by [Json.member] (its first
   occurrence) and checked in the order [Record.of_json] reports them. *)
let member_of_json j =
  let exception Bad of string in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing or malformed field %S" name))
  in
  let decode () =
    match field "record" Json.to_str with
    | "manifest" -> Record.Manifest j
    | "counter" ->
      let name = field "name" Json.to_str in
      Record.Counter (name, field "value" Json.to_int)
    | "gauge" ->
      let name = field "name" Json.to_str in
      Record.Gauge (name, field "value" Json.to_float)
    | "series" ->
      let name = field "name" Json.to_str in
      let xs = field "xs" Json.float_array in
      let ys = field "ys" Json.float_array in
      if Array.length xs <> Array.length ys then
        raise (Bad "series xs/ys length mismatch");
      Record.Series (name, xs, ys)
    | "hist" ->
      let name = field "name" Json.to_str in
      let lo = field "lo" Json.to_float in
      let hi = field "hi" Json.to_float in
      let per_decade =
        match Json.member "per_decade" j with
        | None -> None
        | Some pd -> (
          match Json.to_int pd with
          | Some pd when pd > 0 -> Some pd
          | _ -> raise (Bad "malformed field \"per_decade\""))
      in
      let counts = field "counts" Json.int_array in
      let underflow = field "underflow" Json.to_int in
      let overflow = field "overflow" Json.to_int in
      let invalid = field "invalid" Json.to_int in
      let total = field "total" Json.to_int in
      Record.Hist
        ( name,
          { Record.lo; hi; per_decade; counts; underflow; overflow; invalid;
            total } )
    | "span" ->
      let name = field "name" Json.to_str in
      let count = field "count" Json.to_int in
      let total_s = field "total_s" Json.to_float in
      let max_s = field "max_s" Json.to_float in
      Record.Span (name, { Record.count; total_s; max_s })
    | "event" ->
      let name = field "name" Json.to_str in
      Record.Event
        (name, Option.value (Json.member "fields" j) ~default:(Json.Obj []))
    | "monitor" ->
      let name = field "monitor" Json.to_str in
      let checks = field "checks" Json.to_int in
      let violations = field "violations" Json.to_int in
      let first =
        match Json.member "first" j with
        | None | Some Json.Null -> None
        | Some f -> Some f
      in
      Record.Monitor (name, { Record.checks; violations; first })
    | other -> Record.Unknown (other, j)
  in
  match decode () with r -> Ok r | exception Bad e -> Error e

(* A rendered record with its fields dropped, duplicated, retyped or
   moved, so that the first occurrence and the check order both show. *)
let mangled_json_gen =
  let open QCheck2.Gen in
  let junk =
    oneofl
      [ Json.Null; Json.Str "x"; Json.Num 1.5; Json.Num 2.; Json.Num (-3.);
        Json.Arr [ Json.Num 1. ]; Json.Bool true; Json.Obj [] ]
  in
  let edit fields =
    let n = List.length fields in
    if n = 0 then return fields
    else
      int_bound (n - 1) >>= fun i ->
      let k, _ = List.nth fields i in
      junk >>= fun v ->
      oneofl
        [
          List.filteri (fun j _ -> j <> i) fields;
          (k, v) :: fields;
          fields @ [ (k, v) ];
          List.mapi (fun j f -> if j = i then (k, v) else f) fields;
          List.filteri (fun j _ -> j <> i) fields @ [ List.nth fields i ];
        ]
  in
  record_gen >>= fun r ->
  match Record.to_json r with
  | Json.Obj fields ->
    int_range 0 3 >>= fun edits ->
    let rec go k fields =
      if k = 0 then return fields else edit fields >>= go (k - 1)
    in
    map (fun fields -> Json.Obj fields) (go edits fields)
  | j -> return j

let json_decode_tests =
  [
    qcheck ~count:500 ~name:"of_json matches field-by-field decoding"
      mangled_json_gen (fun j ->
        match (Record.of_json j, member_of_json j) with
        | Ok a, Ok b -> compare a b = 0
        | Error a, Error b -> String.equal a b
        | _ -> false);
    t "Json.is_integer agrees with Float.is_integer" (fun () ->
        List.iter
          (fun f ->
            check_true (Printf.sprintf "%h" f)
              (Json.is_integer f = Float.is_integer f))
          [ 0.; -0.; 1.; -1.; 0.5; -2.5; 1e15; 4.5e18; 4.6e18; -4.6e18;
            4.611686018427387904e18; 9.3e18; 1e300; -1e300; 5e-324;
            Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
            Float.pred 4.6e18; Float.succ 4.6e18 ]);
  ]

(* ---------- varints past 2^62 ---------- *)

(* Integers whose zigzag passes 2^62: the writer codes varints as
   unsigned 63-bit numbers, up to 9 bytes. *)
let varint_boundary_tests =
  [
    t "btrace round-trips ints past 2^62" (fun () ->
        let h lo hi =
          hist ~lo ~hi [| 1; 2 |]
        in
        let records =
          [
            Record.Counter ("c", 1 lsl 61);
            Record.Counter ("c", max_int);
            Record.Counter ("c", min_int);
            Record.Series ("s", [| 0.; 1. |], [| 3e18; 2.4e18 |]);
            Record.Series ("s", [| 0.; 1. |], [| -4e18; 4e18 |]);
            Record.Span ("p", { Record.count = 1; total_s = 3e9; max_s = 1. });
            Record.Hist ("h", h 1. 3e9);
          ]
        in
        List.iter
          (fun r ->
            let fd = Btrace.feed () in
            Btrace.feed_bytes fd (segment [ r ]);
            check_true
              (Json.to_string (Record.to_json r))
              (drain_feed fd = [ r ]))
          records);
  ]

(* ---------- phase spans ---------- *)

(* Listed right after the per-task children in [suite]: alcotest numbers
   tests by position, and this slot keeps the later numbers stable. *)
let span_time_tests =
  [
    t "Span.time records a busy-wait of >= 1 us" (fun () ->
        let reg = Obs.create () in
        Obs.Span.time (Obs.span reg "p") (fun () ->
            let t0 = Obs.now_ns () in
            while Obs.now_ns () - t0 < 1_000 do
              ()
            done);
        let s = List.assoc "p" (Report.spans (report_of_registry reg)) in
        check_int "one call" 1 s.Record.count;
        check_true "at least 1 us" (s.Record.total_s >= 1e-6));
    t "Span.time is an exact passthrough when disabled" (fun () ->
        let p = Obs.span Obs.none "p" in
        check_true "inactive" (not (Obs.Span.active p));
        check_int "result" 7 (Obs.Span.time p (fun () -> 7));
        check_int "nothing counted" 0 (Obs.Span.count p));
    t "Span.time records when the thunk raises" (fun () ->
        let reg = Obs.create () in
        (match Obs.Span.time (Obs.span reg "p") (fun () -> failwith "boom") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected the exception through");
        check_int "occurrence recorded" 1
          (List.assoc "p" (Report.spans (report_of_registry reg))).Report.count);
  ]

(* ---------- the monotonic clock and the traced round ---------- *)

module Soa = Csync_process.Soa
module Scale = Csync_harness.Scale

let clock_span_tests =
  [
    t "Registry.now_ns is positive, monotone and advances" (fun () ->
        let a = Obs.now_ns () in
        check_true "positive" (a > 0);
        let monotone = ref true and prev = ref a in
        for _ = 1 to 1_000 do
          let c = Obs.now_ns () in
          if c < !prev then monotone := false;
          prev := c
        done;
        check_true "monotone" !monotone;
        Unix.sleepf 0.01;
        check_true "advances across a sleep" (Obs.now_ns () - a > 5_000_000));
    t "traced Scale.run writes profile spans only" (fun () ->
        let reg = Obs.create () in
        Obs.install reg;
        Fun.protect ~finally:Obs.clear_installed (fun () ->
            ignore (Scale.run ~jobs:1 ~rounds:2 (Soa.create ~n:64 ~seed:3 ())));
        let profile name =
          String.starts_with ~prefix:"profile." (snd (Record.split_name name))
        in
        let phases =
          List.filter_map
            (function
              | Record.Span (name, s) ->
                check_true (name ^ " counted") (s.Record.count > 0);
                if profile name then Some (name, s.Record.count) else None
              | Record.Counter (name, _)
              | Record.Gauge (name, _)
              | Record.Series (name, _, _)
              | Record.Hist (name, _) ->
                check_true (name ^ " is not a profile record") (not (profile name));
                None
              | _ -> None)
            (Obs.records reg)
        in
        (* Re-minting a span each round continues the same cell. *)
        check_true "every phase timed, per round"
          (List.sort compare phases
          = [
              ("profile.advance", 2); ("profile.apply", 2);
              ("profile.checksum", 1); ("profile.fill", 2); ("profile.sweep", 2);
            ]));
  ]

(* ---------- one report view: timelines, verdicts, --watch ---------- *)

(* Listed right after the collector tests in [suite], the slot of the
   three live-view tests these replace: alcotest numbers tests by
   position, and this keeps the later numbers stable. *)
let report_view_tests =
  [
    t "report renders every timeline, phase row and monitor verdict" (fun () ->
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
              Record.Monitor
                ("halving", { Record.checks = 0; violations = 0; first = None });
            ]
        in
        let out = Format.asprintf "%a" (Report.render ?focus:None) rep in
        let lines = String.split_on_char '\n' out in
        let line_starting prefix =
          match List.find_opt (String.starts_with ~prefix) lines with
          | Some l -> l
          | None -> Alcotest.failf "no line starts with %S in:\n%s" prefix out
        in
        List.iter
          (fun needle ->
            check_true (Printf.sprintf "report mentions %S" needle)
              (contains out needle))
          [
            "target: E16"; "seed: 7"; "jobs: 4"; "* cell";
            "cell/scale.spread (max 0.5, final 0.125)";
            "cell/scale.events_per_round (max 10, final 10)"; "chaos.dropped";
            "agreement    5 checks, 2 violations";
          ];
        check_true "fill row carries 75% of the round"
          (contains (line_starting "fill ") " 75% ");
        check_true "sweep row carries 25% of the round"
          (contains (line_starting "sweep ") " 25% ");
        check_true "a checked clean monitor reads ok"
          (contains (line_starting "local_skew ") "[ok]");
        check_true "a monitor that ran no checks does not read ok"
          (not (contains (line_starting "halving ") "[ok]")));
    t "report --watch keeps the last good frame while a record is half-written"
      (fun () ->
        with_tmp ".btrace" (fun path ->
            Btrace.write_file path
              [
                Record.Series ("cell/scale.spread", [| 1.; 2. |], [| 0.5; 0.25 |]);
                Record.Counter ("cell/scale.events", 3);
              ];
            let whole = read_all path in
            let last, good = Report.refresh ~fleet:false ~last:None path in
            check_true "a whole trace's frame is kept" (last = Some good);
            check_true "the frame is the report"
              (match Report.of_file path with
              | Ok t -> Format.asprintf "%a" (Report.render ?focus:None) t = good
              | Error _ -> false);
            (* The writer is mid-record: the file lacks its last byte. *)
            let oc = open_out_bin path in
            output_string oc (String.sub whole 0 (String.length whole - 1));
            close_out oc;
            let kept, partial = Report.refresh ~fleet:false ~last path in
            check_true "the last good frame is kept" (kept = last);
            check_true "last good frame, then the note"
              (String.starts_with ~prefix:good partial
              && contains partial "(capture in progress: record ");
            let none, waiting = Report.refresh ~fleet:false ~last:None path in
            check_true "nothing to keep before a good read" (none = None);
            check_true "waiting notice"
              (contains waiting (path ^ "\nwaiting for trace data: record "))));
    t "Report.of_file on a missing path is an Error, not an exception"
      (fun () ->
        let path =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "csync-missing-%d.btrace" (Unix.getpid ()))
        in
        match Report.of_file path with
        | Error e -> check_true "the reason is given" (e <> "")
        | Ok _ -> Alcotest.fail "a missing file read as a trace");
  ]

let suite =
  json_tests @ registry_tests @ manifest_tests @ report_tests
  @ forward_compat_tests @ monitor_tests @ provenance_tests @ diff_tests
  @ determinism_tests @ btrace_tests @ btrace_intern_tests @ btrace_codec_tests
  @ child_tests @ span_time_tests
  @ monitor_child_tests
  @ canonical_jobs_tests @ collect_tests
  @ report_view_tests @ alloc_tests @ grid_tests @ render_tests @ capture_tests
  @ json_decode_tests @ varint_boundary_tests @ clock_span_tests
