(* The topology subsystem: graph generator properties (qcheck), the
   gradient rules, the neighbor-multicast path, the local-skew monitor,
   and the two byte-identity contracts the wiring refactor must keep -
   the default ring reproduces the hardcoded-era checksums, and the
   complete graph reproduces the legacy full-mesh broadcast. *)

module Graph = Csync_topo.Graph
module Gradient = Csync_topo.Gradient
module Soa = Csync_process.Soa
module Scale = Csync_harness.Scale
module Scenario = Csync_harness.Scenario
module Registry = Csync_harness.Registry
module Mon = Csync_obs.Monitor
module Mb = Csync_net.Message_buffer
module Delay = Csync_net.Delay
module Engine = Csync_sim.Engine
module Rng = Csync_sim.Rng
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* ---------- generators ---------- *)

let graph_tests =
  [
    qcheck ~name:"ring is the legacy predecessor wiring"
      QCheck2.Gen.(pair (2 -- 120) (1 -- 119))
      (fun (n, d) ->
        let degree = min d (n - 1) in
        let g = Graph.ring ~n ~degree in
        let ok = ref (Graph.is_connected g) in
        for dst = 0 to n - 1 do
          if Graph.in_degree g dst <> degree then ok := false;
          for j = 0 to degree - 1 do
            if Graph.in_neighbor g ~dst j <> (dst - 1 - j + n) mod n then
              ok := false
          done
        done;
        !ok);
    qcheck ~name:"grid is symmetric, connected, degree 1..4"
      QCheck2.Gen.(pair (1 -- 15) (1 -- 15))
      (fun (rows, cols) ->
        QCheck2.assume (rows * cols > 1);
        let g = Graph.grid ~rows ~cols in
        Graph.is_symmetric g && Graph.is_connected g
        && Graph.min_in_degree g >= 1
        && Graph.max_in_degree g <= 4
        && Graph.edges g = 2 * ((rows * (cols - 1)) + (cols * (rows - 1)))
        && Graph.diameter g = rows - 1 + (cols - 1));
    qcheck ~name:"torus is symmetric, connected, degree <= 4"
      QCheck2.Gen.(pair (1 -- 10) (1 -- 10))
      (fun (rows, cols) ->
        QCheck2.assume (rows * cols > 1);
        let g = Graph.torus ~rows ~cols in
        Graph.is_symmetric g && Graph.is_connected g
        && Graph.max_in_degree g <= 4);
    qcheck ~name:"expander is symmetric, connected, 2(degree/2)-regular"
      QCheck2.Gen.(triple (4 -- 400) (2 -- 10) (0 -- 1000))
      (fun (n, degree, seed) ->
        let g = Graph.expander ~n ~degree ~seed in
        let half = max 1 (min (degree / 2) ((n - 1) / 2)) in
        Graph.is_symmetric g && Graph.is_connected g
        && Graph.min_in_degree g = 2 * half
        && Graph.max_in_degree g = 2 * half);
    qcheck ~name:"expander is a pure function of (n, degree, seed)"
      QCheck2.Gen.(pair (8 -- 300) (0 -- 100))
      (fun (n, seed) ->
        let adj g =
          List.init (Graph.n g) (fun dst ->
              List.init (Graph.in_degree g dst) (Graph.in_neighbor g ~dst))
        in
        adj (Graph.expander ~n ~degree:6 ~seed)
        = adj (Graph.expander ~n ~degree:6 ~seed));
    qcheck ~name:"hier_tree is symmetric, connected, clique degree"
      QCheck2.Gen.(triple (2 -- 200) (2 -- 16) (2 -- 5))
      (fun (n, cluster, branching) ->
        QCheck2.assume (n > cluster);
        let g = Graph.hier_tree ~n ~cluster ~branching in
        Graph.is_symmetric g && Graph.is_connected g
        (* every node hears at least its clique *)
        && Graph.min_in_degree g >= min cluster (n mod cluster) - 1);
    t "different expander seeds rewire" (fun () ->
        let a = Graph.expander ~n:200 ~degree:8 ~seed:1 in
        let b = Graph.expander ~n:200 ~degree:8 ~seed:2 in
        let differs = ref false in
        for dst = 0 to 199 do
          for j = 0 to Graph.in_degree a dst - 1 do
            if Graph.in_neighbor a ~dst j <> Graph.in_neighbor b ~dst j then
              differs := true
          done
        done;
        check_true "seed 2 rewires somewhere" !differs);
    t "complete graph is the legacy mesh" (fun () ->
        let g = Graph.complete ~n:5 in
        check_int "diameter" 1 (Graph.diameter g);
        check_int "edges" 20 (Graph.edges g);
        check_int "tolerated" 1 (Graph.tolerated_faults g);
        (* Broadcast lists are 0 .. n-1 for every source - the full-mesh
           loop order, byte for byte. *)
        for src = 0 to 4 do
          let order = ref [] in
          Graph.iter_bcast g ~src (fun dst -> order := dst :: !order);
          Alcotest.(check (list int))
            "bcast order" [ 0; 1; 2; 3; 4 ]
            (List.rev !order)
        done);
    t "distance queries" (fun () ->
        let g = Graph.ring ~n:10 ~degree:1 in
        (* Undirected skeleton of the 1-ring is the 10-cycle. *)
        check_int "diameter" 5 (Graph.diameter g);
        Alcotest.(check (option int)) "hop 3" (Some 3) (Graph.distance g 0 3);
        Alcotest.(check (option int)) "wrap" (Some 2) (Graph.distance g 0 8);
        check_int "eccentricity" 5 (Graph.eccentricity g ~from:7);
        let d = Graph.distances g ~from:0 in
        check_int "self" 0 d.(0);
        check_int "antipode" 5 d.(5));
    t "generators validate arguments" (fun () ->
        check_raises_invalid "ring n" (fun () ->
            ignore (Graph.ring ~n:1 ~degree:1));
        check_raises_invalid "ring degree" (fun () ->
            ignore (Graph.ring ~n:4 ~degree:4));
        check_raises_invalid "grid" (fun () ->
            ignore (Graph.grid ~rows:1 ~cols:1));
        check_raises_invalid "expander n" (fun () ->
            ignore (Graph.expander ~n:3 ~degree:2 ~seed:0));
        check_raises_invalid "complete" (fun () -> ignore (Graph.complete ~n:1)));
  ]

(* ---------- gradient rules ---------- *)

let gradient_tests =
  [
    t "degradation rule matches the sweep's" (fun () ->
        check_int "empty" 0 (Gradient.g_of ~f:5 ~count:0);
        check_int "four" 1 (Gradient.g_of ~f:5 ~count:4);
        check_int "capped by f" 2 (Gradient.g_of ~f:2 ~count:100));
    t "target interpolates toward the midpoint" (fun () ->
        check_float "gain 1 is the full jump" 7. (Gradient.target ~gain:1. ~own:3. ~mid:7.);
        check_float "gain 1/2 is halfway" 5. (Gradient.target ~gain:0.5 ~own:3. ~mid:7.);
        check_float "already there" 3. (Gradient.target ~gain:1. ~own:3. ~mid:3.));
    t "kappa closed form and gain validation" (fun () ->
        check_float "2(eps + 2 rho P)/gain"
          (2. *. (0.001 +. (2. *. 1e-5 *. 10.)))
          (Gradient.kappa ~rho:1e-5 ~eps:0.001 ~period:10. ~gain:1.);
        check_float "halved gain doubles the allowance"
          (4. *. (0.001 +. (2. *. 1e-5 *. 10.)))
          (Gradient.kappa ~rho:1e-5 ~eps:0.001 ~period:10. ~gain:0.5);
        check_raises_invalid "gain 0" (fun () ->
            ignore (Gradient.kappa ~rho:1e-5 ~eps:0.001 ~period:10. ~gain:0.));
        check_raises_invalid "gain > 1" (fun () ->
            ignore (Gradient.kappa ~rho:1e-5 ~eps:0.001 ~period:10. ~gain:1.5)));
    t "skew metrics respect edges and the ok mask" (fun () ->
        let g = Graph.ring ~n:4 ~degree:1 in
        let value = function 0 -> 0. | 1 -> 1. | 2 -> 3. | _ -> 10. in
        let all _ = true in
        check_float "global" 10. (Gradient.global_skew ~n:4 ~ok:all ~value);
        (* Edges (src -> dst): 3-0, 0-1, 1-2, 2-3; worst |diff| = |10 - 0|. *)
        check_float "local" 10. (Gradient.local_skew ~graph:g ~ok:all ~value);
        let without0 p = p <> 0 in
        check_float "masked local" 7.
          (Gradient.local_skew ~graph:g ~ok:without0 ~value));
    t "gradient check accepts within kappa, rejects beyond" (fun () ->
        let g = Graph.ring ~n:6 ~degree:1 in
        let tight = function p -> 0.1 *. float_of_int (min p (6 - p)) in
        let margin, pairs =
          Gradient.check ~graph:g ~ok:(fun _ -> true) ~value:tight ~kappa:0.11
            ~sources:[ 0 ]
        in
        check_true "holds" (margin <= 0.);
        check_int "pairs from one source" 5 pairs;
        let margin, _ =
          Gradient.check ~graph:g ~ok:(fun _ -> true) ~value:tight ~kappa:0.05
            ~sources:[ 0 ]
        in
        check_true "violated under a smaller kappa" (margin > 0.));
  ]

(* ---------- the hardcoded-ring checksum contract ---------- *)

(* Golden trajectories recorded on the pre-topology scale stack (PR 7):
   replacing the hardcoded predecessor ring with Graph.ring must leave
   event counts, round checksums and final state checksums bit-exact,
   whether the ring is the implicit default or passed explicitly.  The
   event counts and state checksums are the values first recorded.  The
   round checksum component was re-pinned when Soa stopped routing
   arrivals through an event queue: it used to fold the queue's pop
   order and now sums per-row hashes of the sorted estimate rows.  The
   unchanged event counts and state checksums show the rows themselves
   did not move. *)
let golden_cases =
  [
    ( "n=500 faulty",
      (fun ?graph () ->
        let m =
          Soa.create ?graph ~n:500 ~degree:7 ~f:2 ~seed:11 ~dispersion:0.5 ()
        in
        Soa.crash m 17;
        Soa.set_pull m 42 0.3;
        Soa.set_pull m 499 (-0.2);
        let s = Scale.run ~jobs:1 ~rounds:3 m in
        (s.Scale.events, s.Scale.checksum, Scale.state_checksum m)),
      Graph.ring ~n:500 ~degree:7,
      (11907, -810643870014291179, 3861587819302134822) );
    ( "n=1000 clean",
      (fun ?graph () ->
        let m = Soa.create ?graph ~n:1000 ~degree:8 ~f:2 ~seed:1 () in
        let s = Scale.run ~jobs:1 ~rounds:2 m in
        (s.Scale.events, s.Scale.checksum, Scale.state_checksum m)),
      Graph.ring ~n:1000 ~degree:8,
      (18000, 578019244748216792, 1321678982338770021) );
    ( "n=64 small",
      (fun ?graph () ->
        let m = Soa.create ?graph ~n:64 ~degree:3 ~f:1 ~seed:7 () in
        let s = Scale.run ~jobs:1 ~rounds:4 m in
        (s.Scale.events, s.Scale.checksum, Scale.state_checksum m)),
      Graph.ring ~n:64 ~degree:3,
      (1024, -3353609132746644865, -2703970182535417761) );
  ]

let checksum_regression_tests =
  List.map
    (fun
      ( name,
        (run : ?graph:Graph.t -> unit -> int * int * int),
        ring,
        (events, checksum, state) )
    ->
      t (Printf.sprintf "PR 7 golden trajectory: %s" name) (fun () ->
          let check_triple tag (e, c, s) =
            check_int (tag ^ " events") events e;
            check_true (tag ^ " round checksum") (c = checksum);
            check_true (tag ^ " state checksum") (s = state)
          in
          check_triple "default ring" (run ());
          check_triple "explicit Graph.ring" (run ~graph:ring ())))
    golden_cases

(* ---------- neighbor multicast ---------- *)

let drain engine =
  let log = ref [] in
  Engine.run_until engine ~until:10. ~handler:(fun tm d ->
      log := (tm, d.Mb.src, d.Mb.dst) :: !log);
  List.rev !log

let multicast_tests =
  [
    t "broadcast follows the graph's neighborhood" (fun () ->
        let engine = Engine.create () in
        let graph = Graph.ring ~n:5 ~degree:2 in
        let buffer =
          Mb.create ~n:5 ~graph ~delay:(Delay.constant 0.01) ~engine ()
        in
        Mb.broadcast buffer ~src:2 "m";
        (* dst hears dst-1, dst-2: src 2's listeners are 3 and 4, so the
           multicast hits itself plus those, ascending. *)
        Alcotest.(check (list int))
          "self + out-neighbors" [ 2; 3; 4 ]
          (List.map (fun (_, _, dst) -> dst) (drain engine));
        check_int "sent" 3 (Mb.sent_count buffer));
    t "complete graph multicast is the legacy broadcast, byte for byte"
      (fun () ->
        let run graph =
          let engine = Engine.create () in
          let delay =
            Delay.uniform ~delta:1e-3 ~eps:1e-4 ~rng:(Rng.create 9)
          in
          let buffer = Mb.create ~n:6 ?graph ~delay ~engine () in
          Mb.broadcast buffer ~src:1 "a";
          Mb.broadcast buffer ~src:4 "b";
          drain engine
        in
        let legacy = run None in
        let meshed = run (Some (Graph.complete ~n:6)) in
        check_int "some deliveries" 12 (List.length legacy);
        check_true "same (time, src, dst) stream" (legacy = meshed));
    t "point-to-point send is never filtered" (fun () ->
        let engine = Engine.create () in
        let graph = Graph.ring ~n:5 ~degree:1 in
        let buffer =
          Mb.create ~n:5 ~graph ~delay:(Delay.constant 0.01) ~engine ()
        in
        (* 0 -> 2 is not a graph edge; send still delivers. *)
        Mb.send buffer ~src:0 ~dst:2 "direct";
        Alcotest.(check (list int))
          "delivered" [ 2 ]
          (List.map (fun (_, _, dst) -> dst) (drain engine)));
    t "graph size must match n" (fun () ->
        check_raises_invalid "mismatch" (fun () ->
            ignore
              (Mb.create ~n:5
                 ~graph:(Graph.ring ~n:6 ~degree:1)
                 ~delay:(Delay.constant 0.01) ~engine:(Engine.create ()) ())));
  ]

(* ---------- full-mesh scenario identity ---------- *)

(* The cluster runner with an explicit complete graph must reproduce the
   legacy graphless run exactly - measurements and message counts, and with
   a monitor on, every message copy's provenance. *)
let scenario_identity_tests =
  [
    t "complete-graph scenario is bit-exact vs legacy, monitor off and on"
      (fun () ->
        let scenario graph =
          {
            (Scenario.with_standard_faults (Scenario.default ~seed:5 (params ()))) with
            Scenario.rounds = 6;
            graph;
          }
        in
        let fingerprint (r : Scenario.result) =
          ( r.Scenario.max_skew,
            r.Scenario.steady_skew,
            r.Scenario.round_spread,
            Array.to_list r.Scenario.adjustments,
            r.Scenario.messages,
            r.Scenario.dropped )
        in
        let plain_legacy = fingerprint (Scenario.run (scenario None)) in
        let plain_mesh =
          fingerprint (Scenario.run (scenario (Some (Graph.complete ~n:7))))
        in
        check_true "telemetry off" (plain_legacy = plain_mesh);
        let monitored graph =
          let mon = Mon.create () in
          Mon.install mon;
          Fun.protect ~finally:Mon.clear_installed (fun () ->
              let r = Scenario.run (scenario graph) in
              let copies =
                Mon.Prov.recent mon ~below:r.Scenario.messages
                  r.Scenario.messages
              in
              check_int "every copy recorded" r.Scenario.messages
                (List.length copies);
              ( fingerprint r,
                copies,
                Mon.checks_performed mon,
                Mon.violations_total mon ))
        in
        let mon_legacy, prov_l, checks_l, viol_l = monitored None in
        let mon_mesh, prov_m, checks_m, viol_m =
          monitored (Some (Graph.complete ~n:7))
        in
        check_true "telemetry on" (mon_legacy = mon_mesh);
        check_true "same provenance" (prov_l = prov_m);
        check_int "same checks" checks_l checks_m;
        check_int "same violations" viol_l viol_m;
        check_true "monitored = unmonitored measurements"
          (plain_legacy = mon_legacy));
  ]

(* ---------- the local-skew monitor ---------- *)

let monitor_tests =
  [
    t "local_skew check flags a per-hop violation" (fun () ->
        let mon = Mon.create ~checks:[ Mon.Local_skew ] () in
        let h = Mon.Local_skew.handle mon ~kappa:0.5 in
        check_true "active" (Mon.Local_skew.active h);
        Mon.Local_skew.check h ~round:1 ~time:10. ~dist:0 ~skew:99.;
        Mon.Local_skew.check h ~round:1 ~time:10. ~dist:2 ~skew:0.9;
        Mon.Local_skew.check h ~round:2 ~time:20. ~dist:1 ~skew:0.6;
        check_int "distance-0 pair ignored" 2 (Mon.checks_performed mon);
        check_int "one violation" 1 (Mon.violations_total mon);
        (match Mon.first_violation mon with
         | Some v ->
           check_true "monitor" (v.Mon.monitor = Mon.Local_skew);
           Alcotest.(check (option int)) "round" (Some 2) v.Mon.round;
           check_float "measured" 0.6 v.Mon.measured;
           check_float "bound" 0.5 v.Mon.bound
         | None -> Alcotest.fail "expected a recorded violation"));
    t "tighten shrinks the allowance" (fun () ->
        let mon = Mon.create ~checks:[ Mon.Local_skew ] ~tighten:0.5 () in
        let h = Mon.Local_skew.handle mon ~kappa:1.0 in
        Mon.Local_skew.check h ~round:1 ~time:1. ~dist:1 ~skew:0.8;
        check_int "0.8 > 0.5 * 1.0" 1 (Mon.violations_total mon));
    t "disabled monitors mint no-op handles" (fun () ->
        let h = Mon.Local_skew.handle Mon.none ~kappa:1.0 in
        check_bool "inactive" false (Mon.Local_skew.active h);
        Mon.Local_skew.check h ~round:1 ~time:1. ~dist:1 ~skew:99.;
        check_int "nothing recorded" 0 (Mon.violations_total Mon.none));
  ]

(* ---------- worker-count identity of the topology experiment ---------- *)

let experiment_identity_tests =
  [
    t "monitored E16 tables byte-identical at 1 and 4 workers" (fun () ->
        let e16 =
          List.filter
            (fun e -> String.equal e.Csync_harness.Experiment.id "E16")
            Registry.all
        in
        check_int "E16 exists" 1 (List.length e16);
        let render jobs =
          let mon = Mon.create () in
          Mon.install mon;
          let out =
            Fun.protect ~finally:Mon.clear_installed (fun () ->
                Registry.run_list ~jobs ~quick:true e16
                |> List.concat_map (fun (_, tables) ->
                       List.map Csync_metrics.Table.to_csv tables)
                |> String.concat "\n")
          in
          (out, Mon.checks_performed mon, Mon.violations_total mon)
        in
        let out1, checks1, viol1 = render 1 in
        let out4, checks4, viol4 = render 4 in
        check_true "tables nonempty" (String.length out1 > 0);
        Alcotest.(check string) "tables" out1 out4;
        check_int "monitor checks" checks1 checks4;
        check_true "local-skew checks ran" (checks1 > 0);
        check_int "monitor violations" viol1 viol4;
        check_int "no violations" 0 viol1);
  ]

(* ---------- CSR construction against the list reference ----------

   The generators used to build per-node lists and convert them with
   [of_in_lists].  This is that code, kept as a test-local reference: the
   direct CSR builders must produce the same graph, array for array, on
   every family - degenerate shapes included (grids and tori of width 1
   or 2, where neighbours repeat or are the node itself; expander degrees
   past (n-1)/2; one cluster spanning every node; a branching of 1). *)

module Ref = struct
  let sorted_dedup l = List.sort_uniq Int.compare l

  let ring ~n ~degree =
    Array.init n (fun dst -> List.init degree (fun j -> (dst - 1 - j + n) mod n))

  let complete ~n =
    Array.init n (fun p -> List.filter (fun q -> q <> p) (List.init n Fun.id))

  let grid_like ~rows ~cols ~wrap =
    let id r c = (r * cols) + c in
    Array.init (rows * cols) (fun p ->
        let r = p / cols and c = p mod cols in
        let near dr dc =
          if wrap then
            Some (id ((r + dr + rows) mod rows) ((c + dc + cols) mod cols))
          else
            let r' = r + dr and c' = c + dc in
            if r' < 0 || r' >= rows || c' < 0 || c' >= cols then None
            else Some (id r' c')
        in
        List.filter_map Fun.id [ near (-1) 0; near 1 0; near 0 (-1); near 0 1 ]
        |> List.filter (fun q -> q <> p)
        |> sorted_dedup)

  let mix x =
    let x = x lxor (x lsr 31) in
    let x = x * 0x2545F4914F6CDD1D in
    let x = x lxor (x lsr 29) in
    let x = x * 0x1F123BB5159A55E5 in
    x lxor (x lsr 32)

  let expander ~n ~degree ~seed =
    let half = max 1 (min (degree / 2) ((n - 1) / 2)) in
    let gens = Array.make half 1 in
    let used = Hashtbl.create 16 in
    Hashtbl.add used 1 ();
    let hseed = mix (seed + mix n + 0x706f) in
    let cursor = ref 0 in
    let lo = 2 and hi = (n - 1) / 2 in
    for k = 1 to half - 1 do
      let rec draw () =
        let h = mix (!cursor + hseed) in
        incr cursor;
        let g = lo + ((h land max_int) mod (hi - lo + 1)) in
        if Hashtbl.mem used g then draw () else g
      in
      let g = if hi < lo then 1 else draw () in
      if g <> 1 then Hashtbl.add used g ();
      gens.(k) <- g
    done;
    Array.init n (fun p ->
        Array.to_list gens
        |> List.concat_map (fun g -> [ (p + g) mod n; (p - g + n) mod n ])
        |> List.filter (fun q -> q <> p)
        |> sorted_dedup)

  let hier_tree ~n ~cluster ~branching =
    let clusters = (n + cluster - 1) / cluster in
    let leader c = c * cluster in
    let lists = Array.make n [] in
    for p = 0 to n - 1 do
      let c = p / cluster in
      let lo = c * cluster and hi = min n ((c + 1) * cluster) in
      lists.(p) <-
        List.filter (fun q -> q <> p) (List.init (hi - lo) (fun i -> lo + i))
    done;
    for c = 1 to clusters - 1 do
      let parent = leader ((c - 1) / branching) and child = leader c in
      lists.(child) <- parent :: lists.(child);
      lists.(parent) <- child :: lists.(parent)
    done;
    Array.map sorted_dedup lists

  let in_csr lists =
    let n = Array.length lists in
    let off = Array.make (n + 1) 0 in
    Array.iteri (fun p l -> off.(p + 1) <- off.(p) + List.length l) lists;
    (off, Array.of_list (List.concat (Array.to_list lists)))

  (* Who hears [src], ascending; the broadcast list adds [src] itself. *)
  let out lists src =
    List.filter (fun dst -> List.mem src lists.(dst))
      (List.init (Array.length lists) Fun.id)

  let bcast lists src = List.sort Int.compare (src :: out lists src)
end

type family =
  | F_ring of int * int
  | F_complete of int
  | F_grid of int * int
  | F_torus of int * int
  | F_expander of int * int * int
  | F_hier of int * int * int

let family_name = function
  | F_ring (n, d) -> Printf.sprintf "ring n=%d degree=%d" n d
  | F_complete n -> Printf.sprintf "complete n=%d" n
  | F_grid (r, c) -> Printf.sprintf "grid %dx%d" r c
  | F_torus (r, c) -> Printf.sprintf "torus %dx%d" r c
  | F_expander (n, d, s) -> Printf.sprintf "expander n=%d degree=%d seed=%d" n d s
  | F_hier (n, c, b) -> Printf.sprintf "hier_tree n=%d cluster=%d branching=%d" n c b

let build_both = function
  | F_ring (n, degree) -> (Graph.ring ~n ~degree, Ref.ring ~n ~degree)
  | F_complete n -> (Graph.complete ~n, Ref.complete ~n)
  | F_grid (rows, cols) ->
    (Graph.grid ~rows ~cols, Ref.grid_like ~rows ~cols ~wrap:false)
  | F_torus (rows, cols) ->
    (Graph.torus ~rows ~cols, Ref.grid_like ~rows ~cols ~wrap:true)
  | F_expander (n, degree, seed) ->
    (Graph.expander ~n ~degree ~seed, Ref.expander ~n ~degree ~seed)
  | F_hier (n, cluster, branching) ->
    ( Graph.hier_tree ~n ~cluster ~branching,
      Ref.hier_tree ~n ~cluster ~branching )

let collect iter g ~src =
  let l = ref [] in
  iter g ~src (fun q -> l := q :: !l);
  List.rev !l

(* In-CSR arrays equal; out-neighbours and broadcast lists equal per node. *)
let matches_reference fam =
  let g, lists = build_both fam in
  let off, adj = Graph.in_csr g in
  let r_off, r_adj = Ref.in_csr lists in
  off = r_off && adj = r_adj
  && List.for_all
       (fun src ->
         collect Graph.iter_out g ~src = Ref.out lists src
         && collect Graph.iter_bcast g ~src = Ref.bcast lists src)
       (List.init (Graph.n g) Fun.id)

let gen_family =
  let open QCheck2.Gen in
  let dims = pair (1 -- 12) (1 -- 12) >|= fun (r, c) -> if r * c > 1 then (r, c) else (r, 2) in
  oneof
    [
      (let* n = 2 -- 40 in
       let+ d = 1 -- (n - 1) in
       F_ring (n, d));
      (2 -- 20 >|= fun n -> F_complete n);
      (dims >|= fun (r, c) -> F_grid (r, c));
      (dims >|= fun (r, c) -> F_torus (r, c));
      (* Small n with degrees well past (n-1)/2, and larger circulants. *)
      (let* n = oneof [ 4 -- 12; 4 -- 150 ] in
       let* d = 2 -- 70 in
       let+ s = 0 -- 1000 in
       F_expander (n, d, s));
      (let* n = 2 -- 60 in
       let* c = oneof [ 2 -- 8; 2 -- 70 ] in
       let+ b = 1 -- 5 in
       F_hier (n, c, b));
    ]

let csr_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:600 ~name:"CSR generators match list reference"
         ~print:family_name gen_family matches_reference);
    t "degenerate CSR shapes match list reference" (fun () ->
        let cases =
          List.concat
            [
              List.concat_map
                (fun n -> List.init (n - 1) (fun d -> F_ring (n, d + 1)))
                [ 2; 3; 4; 5 ];
              List.map (fun n -> F_complete n) [ 2; 3; 4; 5 ];
              List.concat_map
                (fun k ->
                  List.concat_map
                    (fun (r, c) ->
                      if r * c > 1 then [ F_grid (r, c); F_torus (r, c) ] else [])
                    [ (1, k); (k, 1); (2, k); (k, 2) ])
                [ 1; 2; 3; 4; 5; 8 ];
              List.concat_map
                (fun n ->
                  List.concat_map
                    (fun d -> List.map (fun s -> F_expander (n, d, s)) [ 0; 1; 7; 42 ])
                    [ 2; 3; 4; 8; 9; 16; 17; 64 ])
                [ 4; 5; 6; 7; 8; 9; 10; 17; 33; 100 ];
              List.concat_map
                (fun n ->
                  List.concat_map
                    (fun c -> List.map (fun b -> F_hier (n, c, b)) [ 1; 2; 3 ])
                    [ 2; 3; n; n + 1; 1000; max_int ])
                [ 2; 3; 4; 5; 9 ];
            ]
        in
        List.iter
          (fun fam -> check_true (family_name fam) (matches_reference fam))
          cases);
    t "n = 10^4 CSR graphs match list reference" (fun () ->
        let same fam =
          let g, lists = build_both fam in
          let off, adj = Graph.in_csr g in
          let r_off, r_adj = Ref.in_csr lists in
          check_true (family_name fam) (off = r_off && adj = r_adj)
        in
        List.iter same
          [
            F_ring (10_000, 8); F_grid (100, 100); F_torus (100, 100);
            F_hier (10_000, 16, 4); F_expander (1000, 8, 3);
          ];
        List.iter
          (fun (d, s) -> same (F_expander (10_000, d, s)))
          [ (8, 0); (8, 42); (17, 7); (64, 1) ]);
    (* O(n + m) words: [off], [adj], and room for one trimming copy of
       [adj] (the grid drops its missing border neighbours). *)
    t "CSR build allocates <= 2(n+1+m) words" (fun () ->
        let bound g = 2. *. float_of_int (Graph.n g + 1 + Graph.edges g) +. 64. in
        List.iter
          (fun (name, build) ->
            let g = ref (build ()) in
            let words = Helpers.allocated_words (fun () -> g := build ()) in
            if words > bound !g then
              Alcotest.failf "%s: %.0f words > bound %.0f" name words (bound !g))
          [
            ("expander n=10^4 degree=8",
              fun () -> Graph.expander ~n:10_000 ~degree:8 ~seed:3);
            ("grid 100x100", fun () -> Graph.grid ~rows:100 ~cols:100);
          ]);
  ]

(* The expander writes each row in ascending order instead of sorting it;
   the CSR must stay the one the sorting build made.  The digest was taken
   on that build, over an (n, degree, seed) grid that covers the capped
   degrees of small n and rows that wrap on both sides. *)
let expander_grid_digest () =
  let b = Buffer.create (1 lsl 16) in
  let add x = Buffer.add_int64_le b (Int64.of_int x) in
  List.iter
    (fun n ->
      List.iter
        (fun degree ->
          for seed = 1 to 5 do
            let off, adj = Graph.in_csr (Graph.expander ~n ~degree ~seed) in
            add n;
            add degree;
            add seed;
            Array.iter add off;
            Array.iter add adj
          done)
        [ 2; 3; 4; 5; 8; 9; 16; 20 ])
    [ 4; 5; 6; 7; 8; 9; 16; 17; 64; 101; 1000; 10_000 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let expander_pin_tests =
  [
    t "expander CSR digest is pinned" (fun () ->
        Alcotest.(check string)
          "digest" "99ec36750ecebaa0c7228e92f52d8fe0" (expander_grid_digest ()));
  ]

let suite =
  List.concat
    [
      graph_tests;
      gradient_tests;
      checksum_regression_tests;
      multicast_tests;
      scenario_identity_tests;
      monitor_tests;
      experiment_identity_tests;
      csr_tests;
      expander_pin_tests;
    ]
