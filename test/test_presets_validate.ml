let test_ring () =
  let g = Sdfgen.Presets.ring ~name:"r" [| 3.; 4.; 5. |] in
  Fixtures.check_float "period = sum" 12. (Sdf.Statespace.period_exn g);
  match Sdfgen.Presets.ring ~name:"r" [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-actor ring accepted"

let test_pipeline_overlap () =
  let serial = Sdfgen.Presets.pipeline ~name:"p" [| 3.; 7.; 5. |] in
  Fixtures.check_float "no overlap" 15. (Sdf.Statespace.period_exn serial);
  let deep = Sdfgen.Presets.pipeline ~name:"p" ~frames_in_flight:3 [| 3.; 7.; 5. |] in
  Fixtures.check_float "bottleneck" 7. (Sdf.Statespace.period_exn deep);
  match Sdfgen.Presets.pipeline ~name:"p" ~frames_in_flight:0 [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 frames accepted"

(* Strongly connected, consistent rates and a live self-timed execution:
   what the analysis needs of a graph. *)
let well_formed g =
  Sdf.Graph.is_strongly_connected g
  && Result.is_ok (Sdf.Repetition.compute g)
  && Sdf.Statespace.is_live g

let test_media_presets_well_formed () =
  Array.iter
    (fun g ->
      Alcotest.(check bool) (g.Sdf.Graph.name ^ " well formed") true (well_formed g);
      Alcotest.(check bool)
        (g.Sdf.Graph.name ^ " has period")
        true
        (Sdf.Statespace.period_exn g > 0.))
    (Sdfgen.Presets.media_set ())

let test_preset_scaling () =
  let base = Sdf.Statespace.period_exn (Sdfgen.Presets.h263_decoder ()) in
  let doubled = Sdf.Statespace.period_exn (Sdfgen.Presets.h263_decoder ~scale:2. ()) in
  Fixtures.check_float "scaled" (2. *. base) doubled

let test_h263_multirate () =
  let g = Sdfgen.Presets.h263_decoder () in
  let q = Sdf.Repetition.compute_exn g in
  (* 99 block-level firings per frame. *)
  Alcotest.(check (array int)) "repetition" [| 1; 99; 99; 1 |] q

(* Generated graphs are always well formed. *)
let prop_generated_clean =
  Fixtures.qcheck_case ~count:60 "generated graphs are clean" Fixtures.graph_gen
    well_formed

let suite =
  [
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "pipeline overlap" `Quick test_pipeline_overlap;
    Alcotest.test_case "media presets" `Quick test_media_presets_well_formed;
    Alcotest.test_case "preset scaling" `Quick test_preset_scaling;
    Alcotest.test_case "h263 multirate" `Quick test_h263_multirate;
    prop_generated_clean;
  ]
