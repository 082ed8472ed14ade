(* E11 - the Ethernet pathology and the staggered-broadcast fix
   (Section 9.3).

   Receivers have a bounded buffer (3 datagrams per half-delta window).
   With simultaneous broadcasts, a well-synchronized system jams its own
   receivers - "when the system behaves well, it is punished": messages
   drop, fewer than n - f arrivals survive, and each update averages only
   the senders it heard, outside the paper's guarantee.  Staggering process
   p's broadcast to T^i + p*sigma spreads the arrivals, eliminating drops
   while (for sigma ~ eps) keeping the skew at the fault-free level. *)

module Table = Csync_metrics.Table
module Params = Csync_core.Params
module Maintenance = Csync_core.Maintenance

let capacity = 3

let row ~quick sigma =
  let params = Defaults.base () in
  let scenario =
    {
      (Scenario.default params) with
      Scenario.stagger = sigma;
      collision = Some (capacity, params.Params.delta /. 2.);
      rounds = (if quick then 12 else 25);
    }
  in
  let r = Scenario.run scenario in
  let rounds_done =
    List.fold_left
      (fun acc (_, records) -> min acc (List.length records))
      max_int r.Scenario.histories
  in
  let updates = List.concat_map snd r.Scenario.histories in
  let quorum = params.Params.n - params.Params.f in
  let short = List.filter (fun u -> u.Maintenance.arrivals < quorum) updates in
  let drop_pct =
    100. *. float_of_int r.Scenario.dropped
    /. float_of_int (max 1 r.Scenario.messages)
  in
  [
    [
      Table.cell_e sigma;
      string_of_int r.Scenario.messages;
      string_of_int r.Scenario.dropped;
      Printf.sprintf "%.1f" drop_pct;
      Printf.sprintf "%d/%d" (List.length short) (List.length updates);
      string_of_int rounds_done;
      Table.cell_e r.Scenario.steady_skew;
      Table.cell_e (Params.gamma params);
    ];
  ]

let cells ~quick =
  let { Params.delta; eps; _ } = Defaults.base () in
  List.map
    (fun sigma ->
      Experiment.cell ~label:(Printf.sprintf "sigma=%g" sigma) (fun () ->
          row ~quick sigma))
    (if quick then [ 0.; 4. *. eps ] else [ 0.; eps; 4. *. eps; delta ])

let assemble ~quick:_ rows =
  let { Params.n; delta; _ } = Defaults.base () in
  let table =
    Table.make
      ~title:"E11: bounded receive buffers - simultaneous vs staggered broadcast"
      ~columns:
        [ "stagger sigma"; "msgs sent"; "dropped"; "drop %"; "short updates";
          "rounds done"; "steady skew"; "gamma" ]
      ()
  in
  [
    Table.note
      (Table.add_rows table (List.concat rows))
      (Printf.sprintf
         "Buffer: %d datagrams per %.1e s per receiver, n = %d.  At sigma=0 \
          all broadcasts collide and 'short updates' hear fewer than n - f \
          senders; staggering restores loss-free synchronization \
          (Section 9.3's fix, implemented at AT&T Bell Labs in 1986)."
         capacity (delta /. 2.) n);
  ]

let experiment =
  Experiment.of_cells ~id:"E11"
    ~title:"Datagram collisions and staggered broadcasts"
    ~paper_ref:"Section 9.3 (implementation on Suns + Ethernet)" ~cells
    ~assemble
