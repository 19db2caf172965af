(* Unit and property tests for the stats library. *)

let feq = Alcotest.float 1e-9
let feq_loose = Alcotest.float 1e-6
let check = Alcotest.check

(* ---- Descriptive ---- *)

let data = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]

let test_descriptive () =
  check feq "mean" 5. (Stats.Descriptive.mean data);
  check feq_loose "variance" (32. /. 7.) (Stats.Descriptive.variance data);
  check feq "min" 2. (Stats.Descriptive.min data);
  check feq "max" 9. (Stats.Descriptive.max data);
  check feq "median" 4.5 (Stats.Descriptive.median data);
  check feq "sum" 40. (Stats.Descriptive.sum data)

let test_descriptive_singleton () =
  check feq "variance of singleton" 0. (Stats.Descriptive.variance [| 3. |]);
  check feq "median of singleton" 3. (Stats.Descriptive.median [| 3. |])

let test_descriptive_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Descriptive.mean: empty data")
    (fun () -> ignore (Stats.Descriptive.mean [||]))

let test_geometric_mean () =
  check feq_loose "geometric mean" 2. (Stats.Descriptive.geometric_mean [| 1.; 2.; 4. |])

let test_normalize () =
  check (Alcotest.array feq) "normalize" [| 0.25; 0.75 |] (Stats.Descriptive.normalize [| 1.; 3. |])

let test_standardize () =
  let z, mu, _sigma = Stats.Descriptive.standardize data in
  check feq "standardize mu" 5. mu;
  check feq_loose "standardized mean ~0" 0. (Stats.Descriptive.mean z)

(* ---- Quantile ---- *)

let test_quantile_known () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check feq "median" 3. (Stats.Quantile.quantile xs 0.5);
  check feq "q0" 1. (Stats.Quantile.quantile xs 0.);
  check feq "q1" 5. (Stats.Quantile.quantile xs 1.);
  check feq "q0.25 interpolates" 2. (Stats.Quantile.quantile xs 0.25);
  check feq "q0.1 interpolates" 1.4 (Stats.Quantile.quantile xs 0.1)

let test_quantile_unsorted_input () =
  check feq "input need not be sorted" 3. (Stats.Quantile.quantile [| 5.; 1.; 3.; 2.; 4. |] 0.5)

let test_quantile_rejects_non_finite () =
  (* The old polymorphic-compare sort ordered NaN arbitrarily and
     returned a garbage order statistic; now every non-finite entry
     fails loudly. *)
  List.iter
    (fun (label, bad) ->
      Alcotest.check_raises label (Invalid_argument "Quantile.quantile: non-finite entry")
        (fun () -> ignore (Stats.Quantile.quantile [| 1.; bad; 3. |] 0.5)))
    [ ("nan entry", Float.nan); ("inf entry", Float.infinity); ("-inf entry", Float.neg_infinity) ];
  Alcotest.check_raises "sorted variant rejects nan too"
    (Invalid_argument "Quantile.quantile_sorted: non-finite entry") (fun () ->
      ignore (Stats.Quantile.quantile_sorted [| 1.; 2.; Float.nan |] 0.5))

let test_percentile_rank () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check feq "rank of 3" 0.5 (Stats.Quantile.percentile_rank xs 3.);
  check feq "rank below min" 0. (Stats.Quantile.percentile_rank xs 0.)

let test_split_at_quantile () =
  let ys = [| 10.; 1.; 5.; 8.; 2.; 9.; 3.; 7.; 4.; 6. |] in
  let threshold, good, bad = Stats.Quantile.split_at_quantile ys 0.2 in
  check Alcotest.int "good+bad partition" 10 (Array.length good + Array.length bad);
  Array.iter (fun i -> check Alcotest.bool "good below threshold" true (ys.(i) < threshold)) good;
  Array.iter (fun i -> check Alcotest.bool "bad at/above threshold" true (ys.(i) >= threshold)) bad;
  check Alcotest.bool "good non-empty" true (Array.length good > 0)

let test_split_all_equal () =
  let ys = [| 5.; 5.; 5.; 5. |] in
  let _, good, bad = Stats.Quantile.split_at_quantile ys 0.2 in
  check Alcotest.int "ties promote all minima" 4 (Array.length good);
  check Alcotest.int "no bad" 0 (Array.length bad)

let prop_split_good_nonempty =
  QCheck2.Test.make ~name:"split_at_quantile: good side never empty" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 50) (float_range 0. 100.)) (float_range 0.01 0.99))
    (fun (ys, alpha) ->
      let ys = Array.of_list ys in
      let _, good, bad = Stats.Quantile.split_at_quantile ys alpha in
      Array.length good > 0 && Array.length good + Array.length bad = Array.length ys)

(* ---- Histogram ---- *)

let test_histogram_probs_sum () =
  let h = Stats.Histogram.create ~n_categories:4 () in
  Stats.Histogram.observe h 0;
  Stats.Histogram.observe h 0;
  Stats.Histogram.observe h 2;
  let probs = Stats.Histogram.probs h in
  check feq_loose "probs sum to 1" 1. (Array.fold_left ( +. ) 0. probs);
  check Alcotest.bool "seen category more likely" true (probs.(0) > probs.(1));
  check Alcotest.bool "unseen category has mass" true (probs.(1) > 0.)

let test_histogram_empty_uniform () =
  let h = Stats.Histogram.create ~n_categories:5 () in
  Array.iter (fun p -> check feq "uniform when empty" 0.2 p) (Stats.Histogram.probs h)

let test_histogram_no_smoothing () =
  let h = Stats.Histogram.create ~smoothing:0. ~n_categories:2 () in
  Stats.Histogram.observe h 0;
  check feq "no smoothing: all mass on seen" 1. (Stats.Histogram.prob h 0);
  check feq "no smoothing: zero mass on unseen" 0. (Stats.Histogram.prob h 1)

let test_histogram_weighted_merge () =
  let prior = Stats.Histogram.create ~n_categories:2 () in
  Stats.Histogram.observe prior 0;
  Stats.Histogram.observe prior 0;
  let target = Stats.Histogram.create ~n_categories:2 () in
  Stats.Histogram.observe target 1;
  let merged = Stats.Histogram.merge_weighted ~prior ~w:0.5 target in
  check feq "merged count cat0" 1. (Stats.Histogram.count merged 0);
  check feq "merged count cat1" 1. (Stats.Histogram.count merged 1);
  check feq "merged total" 2. (Stats.Histogram.total merged)

let test_histogram_out_of_range () =
  let h = Stats.Histogram.create ~n_categories:3 () in
  Alcotest.check_raises "category out of range" (Invalid_argument "Histogram: category out of range")
    (fun () -> Stats.Histogram.observe h 3)

(* NaN slips through [x < 0.] checks (every NaN comparison is false),
   and infinity is non-negative: both must be rejected explicitly at
   every weighted entry point, or they silently poison the densities. *)
let test_histogram_rejects_non_finite () =
  List.iter
    (fun bad ->
      Alcotest.check_raises "create: bad smoothing"
        (Invalid_argument "Histogram.create: smoothing must be finite and non-negative")
        (fun () -> ignore (Stats.Histogram.create ~smoothing:bad ~n_categories:3 ()));
      let h = Stats.Histogram.create ~n_categories:3 () in
      Alcotest.check_raises "observe_weighted: bad weight"
        (Invalid_argument "Histogram.observe_weighted: weight must be finite and non-negative")
        (fun () -> Stats.Histogram.observe_weighted h 0 bad);
      Alcotest.check_raises "merge_weighted: bad weight"
        (Invalid_argument "Histogram.merge_weighted: weight must be finite and non-negative")
        (fun () -> ignore (Stats.Histogram.merge_weighted ~prior:h ~w:bad h)))
    [ Float.nan; Float.infinity; -1. ]

let test_kde_rejects_non_finite () =
  let kde = Stats.Kde.create [| 0.; 1.; 2. |] in
  List.iter
    (fun bad ->
      Alcotest.check_raises "create_weighted: bad weight"
        (Invalid_argument "Kde.create_weighted: weight must be finite and non-negative")
        (fun () -> ignore (Stats.Kde.create_weighted [| (0., 1.); (1., bad) |]));
      Alcotest.check_raises "merge_weighted: bad weight"
        (Invalid_argument "Kde.merge_weighted: weight must be finite and non-negative")
        (fun () -> ignore (Stats.Kde.merge_weighted ~prior:kde ~w:bad kde)))
    [ Float.nan; Float.infinity; -1. ];
  List.iter
    (fun bad ->
      Alcotest.check_raises "create_weighted: bad bandwidth"
        (Invalid_argument "Kde.create_weighted: bandwidth must be finite and positive")
        (fun () -> ignore (Stats.Kde.create_weighted ~bandwidth:bad [| (0., 1.) |])))
    [ Float.nan; Float.infinity; 0.; -2. ];
  Alcotest.check_raises "create_weighted: all-zero weights"
    (Invalid_argument "Kde.create_weighted: weights sum to zero")
    (fun () -> ignore (Stats.Kde.create_weighted [| (0., 0.); (1., 0.) |]))

(* ---- KDE ---- *)

let test_kde_integrates_to_one () =
  let kde = Stats.Kde.create ~bandwidth:0.3 [| 0.; 1.; 2.; 2.5 |] in
  (* Trapezoidal integration over a wide interval. *)
  let n = 4000 in
  let lo = -5. and hi = 8. in
  let h = (hi -. lo) /. float_of_int n in
  let acc = ref 0. in
  for i = 0 to n do
    let w = if i = 0 || i = n then 0.5 else 1. in
    acc := !acc +. (w *. Stats.Kde.pdf kde (lo +. (h *. float_of_int i)))
  done;
  check (Alcotest.float 1e-3) "pdf integrates to 1" 1. (!acc *. h)

let test_kde_peaks_at_data () =
  let kde = Stats.Kde.create ~bandwidth:0.2 [| 1.; 1.; 1.; 5. |] in
  check Alcotest.bool "density higher at cluster" true (Stats.Kde.pdf kde 1. > Stats.Kde.pdf kde 5.);
  check Alcotest.bool "density low far away" true (Stats.Kde.pdf kde 20. < 1e-6)

let test_kde_weighted () =
  let kde = Stats.Kde.create_weighted ~bandwidth:0.2 [| (0., 3.); (10., 1.) |] in
  check Alcotest.bool "weighted center denser" true (Stats.Kde.pdf kde 0. > 2. *. Stats.Kde.pdf kde 10.)

let test_kde_sample_near_data () =
  let kde = Stats.Kde.create ~bandwidth:0.1 [| 5. |] in
  let rng = Prng.Rng.create 41 in
  for _ = 1 to 200 do
    let x = Stats.Kde.sample kde rng in
    check Alcotest.bool "samples near the center" true (Float.abs (x -. 5.) < 1.)
  done

let test_kde_merge () =
  let prior = Stats.Kde.create ~bandwidth:0.5 [| 0. |] in
  let target = Stats.Kde.create ~bandwidth:0.5 [| 10. |] in
  let merged = Stats.Kde.merge_weighted ~prior ~w:1.0 target in
  check Alcotest.int "merged sample count" 2 (Stats.Kde.n_samples merged);
  check Alcotest.bool "mass at both modes" true
    (Stats.Kde.pdf merged 0. > 0.1 && Stats.Kde.pdf merged 10. > 0.1)

(* Bit-exact golden values recorded as hex-float literals: every
   tuning benchmark is all-discrete, so this is what guards [Kde.pdf]'s
   left-to-right kernel accumulation against a float-order change. The
   last plain point lies far enough out that the density falls below
   [min_density], where [log_pdf] clamps to the floor. *)
let test_kde_golden () =
  let bits =
    Alcotest.testable
      (fun ppf x -> Format.fprintf ppf "%h" x)
      (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  let plain = Stats.Kde.create ~bandwidth:0.3 [| 0.; 1.; 2.; 2.5; 0.7 |] in
  let prior =
    Stats.Kde.create_weighted ~bandwidth:0.45 [| (1.5, 2.); (-0.25, 0.5); (3.1, 1.) |]
  in
  let merged = Stats.Kde.merge_weighted ~prior ~w:0.35 plain in
  let pin name kde cases =
    List.iter
      (fun (x, expected) ->
        check bits (Printf.sprintf "%s pdf %h" name x) expected (Stats.Kde.pdf kde x))
      cases
  in
  pin "plain" plain
    [
      (0., 0x1.234c5b59b8d2ap-2);
      (0.85, 0x1.e5c80d9319a87p-2);
      (1.3, 0x1.b81dc3a62905dp-3);
      (2.75, 0x1.98d5eed90cfp-3);
      (-1.1, 0x1.4fbcdeafd4ea1p-12);
      (13.5, 0x1.36527b249819p-972);
      (13.7, 0x1.9d541f244c71dp-1008);
      (40., 0x0p+0);
    ];
  pin "merged" merged
    [
      (0., 0x1.0506cbcdf23c1p-2);
      (1.5, 0x1.0d500b1fc81d8p-2);
      (2.2, 0x1.3ed48df5a8fc2p-2);
      (3.1, 0x1.a9b9361a71676p-4);
      (-0.6, 0x1.880d0109093d7p-5);
      (13.7, 0x1.9ecc5c2c695b3p-905);
    ];
  check Alcotest.bool "13.7 is below the density floor" true
    (Stats.Kde.pdf plain 13.7 < Stats.Kde.min_density);
  check bits "log_pdf clamps at the floor" Stats.Kde.log_min_density (Stats.Kde.log_pdf plain 13.7);
  check bits "log_pdf above the floor" (-0x1.50c5f7d617841p+9) (Stats.Kde.log_pdf plain 13.5);
  check (Alcotest.array bits) "pdf_grid is pointwise pdf"
    [| 0x1.0506cbcdf23c1p-2; 0x1.a9b9361a71676p-4 |]
    (Stats.Kde.pdf_grid merged [| 0.; 3.1 |])

(* ---- Divergence ---- *)

let test_kl_js_basics () =
  let p = [| 0.5; 0.5 |] and q = [| 0.9; 0.1 |] in
  check feq "KL(p,p) = 0" 0. (Stats.Divergence.kl p p);
  check feq "JS(p,p) = 0" 0. (Stats.Divergence.js p p);
  check Alcotest.bool "KL positive" true (Stats.Divergence.kl p q > 0.);
  check feq_loose "JS symmetric" (Stats.Divergence.js p q) (Stats.Divergence.js q p);
  check Alcotest.bool "JS bounded by ln 2" true (Stats.Divergence.js [| 1.; 0. |] [| 0.; 1. |] <= log 2. +. 1e-12)

let test_kl_infinite () =
  check Alcotest.bool "KL infinite on disjoint support" true
    (Float.is_integer (Stats.Divergence.kl [| 1.; 0. |] [| 0.; 1. |]) = false
    || Stats.Divergence.kl [| 1.; 0. |] [| 0.; 1. |] = infinity)

let test_js_of_pdfs () =
  let f x = if x >= 0. && x < 1. then 1. else 0. in
  check (Alcotest.float 1e-6) "identical pdfs" 0. (Stats.Divergence.js_of_pdfs ~lo:0. ~hi:1. ~n:64 f f);
  let g x = if x >= 0.5 && x < 1. then 2. else 0. in
  check Alcotest.bool "different pdfs diverge" true
    (Stats.Divergence.js_of_pdfs ~lo:0. ~hi:1. ~n:64 f g > 0.1)

let prop_js_symmetric_bounded =
  QCheck2.Test.make ~name:"JS is symmetric and in [0, ln 2]" ~count:200
    QCheck2.Gen.(list_size (int_range 2 8) (float_range 0.01 1.))
    (fun weights ->
      let arr = Array.of_list weights in
      let p = Stats.Descriptive.normalize arr in
      let q = Stats.Descriptive.normalize (Array.map (fun x -> 1.1 -. x) arr) in
      let js_pq = Stats.Divergence.js p q and js_qp = Stats.Divergence.js q p in
      Float.abs (js_pq -. js_qp) < 1e-9 && js_pq >= 0. && js_pq <= log 2. +. 1e-9)

(* ---- Running ---- *)

let test_running_matches_descriptive () =
  let r = Stats.Running.create () in
  Array.iter (Stats.Running.add r) data;
  check Alcotest.int "count" (Array.length data) (Stats.Running.count r);
  check feq_loose "mean" (Stats.Descriptive.mean data) (Stats.Running.mean r);
  check feq_loose "variance" (Stats.Descriptive.variance data) (Stats.Running.variance r);
  check feq "min" 2. (Stats.Running.min r);
  check feq "max" 9. (Stats.Running.max r)

let test_running_merge () =
  let a = Stats.Running.create () and b = Stats.Running.create () in
  Array.iteri (fun i x -> Stats.Running.add (if i < 4 then a else b) x) data;
  let merged = Stats.Running.merge a b in
  check feq_loose "merged mean" (Stats.Descriptive.mean data) (Stats.Running.mean merged);
  check feq_loose "merged variance" (Stats.Descriptive.variance data) (Stats.Running.variance merged)

let test_running_empty () =
  let r = Stats.Running.create () in
  check feq "empty mean" 0. (Stats.Running.mean r);
  check feq "empty variance" 0. (Stats.Running.variance r)

(* ---- Standard normal (copula support) ---- *)

let test_normal_erfc_and_cdf () =
  let near tol msg expect got = check (Alcotest.float tol) msg expect got in
  near 1e-7 "erfc 0" 1. (Stats.Normal.erfc 0.);
  near 1e-7 "erfc 1" 0.15729920705 (Stats.Normal.erfc 1.);
  near 1e-7 "erfc symmetry" 2.
    (Stats.Normal.erfc 0.7 +. Stats.Normal.erfc (-0.7));
  near 1e-7 "cdf 0" 0.5 (Stats.Normal.cdf 0.);
  near 1e-7 "cdf 1.96" 0.9750021049 (Stats.Normal.cdf 1.96);
  near 1e-7 "cdf -1.96" 0.0249978951 (Stats.Normal.cdf (-1.96));
  check Alcotest.bool "cdf tails" true
    (Stats.Normal.cdf (-10.) < 1e-20 && Stats.Normal.cdf 10. > 1. -. 1e-9);
  near 1e-9 "pdf 0" 0.3989422804014327 (Stats.Normal.pdf 0.)

let test_normal_ppf_roundtrip () =
  (* The Halley-refined inverse must agree with the forward CDF far
     better than either approximation alone. *)
  let ps = [ 1e-6; 0.001; 0.025; 0.2; 0.5; 0.8; 0.975; 0.999; 1. -. 1e-6 ] in
  List.iter
    (fun p ->
      let z = Stats.Normal.ppf p in
      check (Alcotest.float 1e-7) (Printf.sprintf "cdf (ppf %g)" p) p (Stats.Normal.cdf z))
    ps;
  check (Alcotest.float 1e-7) "median" 0. (Stats.Normal.ppf 0.5);
  check (Alcotest.float 1e-6) "ppf 0.975" 1.959964 (Stats.Normal.ppf 0.975);
  let raises p =
    Alcotest.check_raises (Printf.sprintf "ppf %g rejected" p)
      (Invalid_argument "Normal.ppf: p must lie strictly between 0 and 1") (fun () ->
        ignore (Stats.Normal.ppf p))
  in
  raises 0.;
  raises 1.;
  raises (-0.5);
  raises Float.nan

let suite =
  let tc = Alcotest.test_case in
  ( "stats",
    [
      tc "descriptive" `Quick test_descriptive;
      tc "descriptive singleton" `Quick test_descriptive_singleton;
      tc "descriptive empty" `Quick test_descriptive_empty;
      tc "geometric mean" `Quick test_geometric_mean;
      tc "normalize" `Quick test_normalize;
      tc "standardize" `Quick test_standardize;
      tc "quantile known values" `Quick test_quantile_known;
      tc "quantile unsorted" `Quick test_quantile_unsorted_input;
      tc "quantile rejects non-finite" `Quick test_quantile_rejects_non_finite;
      tc "percentile rank" `Quick test_percentile_rank;
      tc "split at quantile" `Quick test_split_at_quantile;
      tc "split all equal" `Quick test_split_all_equal;
      QCheck_alcotest.to_alcotest prop_split_good_nonempty;
      tc "histogram probs sum" `Quick test_histogram_probs_sum;
      tc "histogram empty uniform" `Quick test_histogram_empty_uniform;
      tc "histogram without smoothing" `Quick test_histogram_no_smoothing;
      tc "histogram weighted merge" `Quick test_histogram_weighted_merge;
      tc "histogram out of range" `Quick test_histogram_out_of_range;
      tc "histogram rejects non-finite" `Quick test_histogram_rejects_non_finite;
      tc "kde rejects non-finite" `Quick test_kde_rejects_non_finite;
      tc "kde integrates to 1" `Quick test_kde_integrates_to_one;
      tc "kde peaks at data" `Quick test_kde_peaks_at_data;
      tc "kde weighted" `Quick test_kde_weighted;
      tc "kde sample near data" `Quick test_kde_sample_near_data;
      tc "kde merge prior" `Quick test_kde_merge;
      tc "kde golden values" `Quick test_kde_golden;
      tc "normal erfc/cdf accuracy" `Quick test_normal_erfc_and_cdf;
      tc "normal ppf roundtrip" `Quick test_normal_ppf_roundtrip;
      tc "kl/js basics" `Quick test_kl_js_basics;
      tc "kl infinite on disjoint" `Quick test_kl_infinite;
      tc "js of pdfs" `Quick test_js_of_pdfs;
      QCheck_alcotest.to_alcotest prop_js_symmetric_bounded;
      tc "running matches descriptive" `Quick test_running_matches_descriptive;
      tc "running merge" `Quick test_running_merge;
      tc "running empty" `Quick test_running_empty;
    ] )

(* ---- Correlation ---- *)

let test_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check feq_loose "perfect positive" 1. (Stats.Correlation.pearson xs [| 2.; 4.; 6.; 8. |]);
  check feq_loose "perfect negative" (-1.) (Stats.Correlation.pearson xs [| 8.; 6.; 4.; 2. |]);
  check feq "zero variance" 0. (Stats.Correlation.pearson xs [| 5.; 5.; 5.; 5. |])

let test_spearman_rank_based () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  (* Monotone but nonlinear: Spearman 1, Pearson < 1. *)
  let ys = Array.map (fun x -> x ** 5.) xs in
  check feq_loose "monotone gives spearman 1" 1. (Stats.Correlation.spearman xs ys);
  check Alcotest.bool "pearson below 1" true (Stats.Correlation.pearson xs ys < 0.999)

let test_ranks_with_ties () =
  check (Alcotest.array feq) "average ranks for ties" [| 1.5; 1.5; 3.; 4. |]
    (Stats.Correlation.ranks [| 7.; 7.; 8.; 9. |])

(* ---- Bootstrap ---- *)

let test_bootstrap_mean_ci () =
  let rng = Prng.Rng.create 77 in
  let xs = Array.init 200 (fun _ -> 10. +. Prng.Rng.normal rng) in
  let ci = Stats.Bootstrap.mean_ci ~rng xs in
  check Alcotest.bool "point inside interval" true (ci.Stats.Bootstrap.lo <= ci.point && ci.point <= ci.hi);
  check Alcotest.bool "interval near 10" true (ci.lo > 9.5 && ci.hi < 10.5);
  check Alcotest.bool "interval nonempty width" true (ci.hi > ci.lo)

let test_bootstrap_paired_diff () =
  let rng = Prng.Rng.create 78 in
  let a = Array.init 100 (fun _ -> 5. +. Prng.Rng.normal rng) in
  let b = Array.map (fun x -> x -. 1.) a in
  let ci = Stats.Bootstrap.paired_diff_ci ~rng a b in
  check Alcotest.bool "clear difference significant" true (Stats.Bootstrap.significant ci);
  let same = Stats.Bootstrap.paired_diff_ci ~rng a a in
  check Alcotest.bool "self difference not significant" false (Stats.Bootstrap.significant same)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "pearson" `Quick test_pearson;
        Alcotest.test_case "spearman is rank-based" `Quick test_spearman_rank_based;
        Alcotest.test_case "ranks with ties" `Quick test_ranks_with_ties;
        Alcotest.test_case "bootstrap mean ci" `Quick test_bootstrap_mean_ci;
        Alcotest.test_case "bootstrap paired diff" `Quick test_bootstrap_paired_diff;
      ] )

(* ---- Non-finite / edge-case regressions ---- *)

let test_percentile_rank_rejects_non_finite () =
  (* NaN compares false against every entry, so the old code returned
     rank 0 for NaN instead of failing; non-finite entries likewise
     made the "strictly below" count meaningless. *)
  List.iter
    (fun (label, bad) ->
      Alcotest.check_raises label (Invalid_argument "Quantile.percentile_rank: non-finite value")
        (fun () -> ignore (Stats.Quantile.percentile_rank [| 1.; 2.; 3. |] bad)))
    [ ("nan value", Float.nan); ("inf value", Float.infinity); ("-inf value", Float.neg_infinity) ];
  Alcotest.check_raises "non-finite entry"
    (Invalid_argument "Quantile.percentile_rank: non-finite entry") (fun () ->
      ignore (Stats.Quantile.percentile_rank [| 1.; Float.nan; 3. |] 2.))

let test_running_add_rejects_non_finite () =
  let r = Stats.Running.create () in
  Stats.Running.add r 1.;
  Stats.Running.add r 3.;
  List.iter
    (fun (label, bad) ->
      Alcotest.check_raises label (Invalid_argument "Running.add: non-finite value") (fun () ->
          Stats.Running.add r bad))
    [ ("nan sample", Float.nan); ("inf sample", Float.infinity); ("-inf sample", Float.neg_infinity) ];
  (* A rejected sample must leave the accumulator untouched — the old
     code bumped n and poisoned mean/m2 before min/max ever saw x. *)
  check Alcotest.int "count unchanged" 2 (Stats.Running.count r);
  check feq "mean unchanged" 2. (Stats.Running.mean r);
  check feq "min unchanged" 1. (Stats.Running.min r);
  check feq "max unchanged" 3. (Stats.Running.max r)

let test_running_merge_after_rejected_add () =
  (* Merging with a side that survived a rejected add is well-defined
     and identical to merging the clean streams. *)
  let a = Stats.Running.create () and b = Stats.Running.create () in
  Stats.Running.add a 2.;
  Stats.Running.add a 4.;
  (try Stats.Running.add b Float.nan with Invalid_argument _ -> ());
  Stats.Running.add b 6.;
  let merged = Stats.Running.merge a b in
  check Alcotest.int "merged count" 3 (Stats.Running.count merged);
  check feq_loose "merged mean" 4. (Stats.Running.mean merged);
  check feq "merged min" 2. (Stats.Running.min merged);
  check feq "merged max" 6. (Stats.Running.max merged)

let test_bootstrap_mean_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Bootstrap.mean: empty data")
    (fun () -> ignore (Stats.Bootstrap.mean [||]))

(* Running.merge must agree with feeding the concatenated stream into a
   single accumulator, for every split point — including empty and
   singleton sides. *)
let prop_running_merge_matches_sequential =
  QCheck2.Test.make ~name:"Running.merge = sequential add over any split" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 0 30) (float_range (-1e6) 1e6)) (float_range 0. 1.))
    (fun (samples, split_frac) ->
      let xs = Array.of_list samples in
      let n = Array.length xs in
      let split = int_of_float (split_frac *. float_of_int n) in
      let a = Stats.Running.create () and b = Stats.Running.create () in
      Array.iteri (fun i x -> Stats.Running.add (if i < split then a else b) x) xs;
      let merged = Stats.Running.merge a b in
      let seq = Stats.Running.create () in
      Array.iter (Stats.Running.add seq) xs;
      let close eps x y = Float.abs (x -. y) <= eps *. (1. +. Float.abs y) in
      Stats.Running.count merged = Stats.Running.count seq
      && close 1e-9 (Stats.Running.mean merged) (Stats.Running.mean seq)
      && close 1e-6 (Stats.Running.variance merged) (Stats.Running.variance seq)
      && Stats.Running.min merged = Stats.Running.min seq
      && Stats.Running.max merged = Stats.Running.max seq)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "percentile rank rejects non-finite" `Quick
          test_percentile_rank_rejects_non_finite;
        Alcotest.test_case "running add rejects non-finite" `Quick
          test_running_add_rejects_non_finite;
        Alcotest.test_case "running merge after rejected add" `Quick
          test_running_merge_after_rejected_add;
        Alcotest.test_case "bootstrap mean empty" `Quick test_bootstrap_mean_empty;
        QCheck_alcotest.to_alcotest prop_running_merge_matches_sequential;
      ] )

(* ---- Quantile boundary behaviour (interpolation index math) ---- *)

let test_quantile_boundaries () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check feq "q=0 is the minimum" 1. (Stats.Quantile.quantile xs 0.);
  check feq "q=1 is the maximum" 5. (Stats.Quantile.quantile xs 1.);
  check feq "q=1 on two elements" 2. (Stats.Quantile.quantile [| 1.; 2. |] 1.);
  (* Single-element arrays short-circuit for every q. *)
  check feq "singleton q=0" 7. (Stats.Quantile.quantile [| 7. |] 0.);
  check feq "singleton q=1" 7. (Stats.Quantile.quantile [| 7. |] 1.);
  check feq "singleton q=0.5" 7. (Stats.Quantile.quantile [| 7. |] 0.5);
  (* q a hair under 1: the interpolation index must stay in bounds
     even when (n-1)*q rounds up to exactly n-1. *)
  let q = 1. -. epsilon_float in
  let v = Stats.Quantile.quantile xs q in
  check Alcotest.bool "near-1 quantile within data range" true (v >= 4. && v <= 5.);
  let big = Array.init 1_000_001 float_of_int in
  let v = Stats.Quantile.quantile_sorted big q in
  check Alcotest.bool "large-n near-1 quantile in bounds" true (v >= 999_999. && v <= 1_000_000.)

let test_quantile_rejects_out_of_range () =
  let xs = [| 1.; 2. |] in
  Alcotest.check_raises "q above 1" (Invalid_argument "Quantile.quantile_sorted: q outside [0, 1]")
    (fun () -> ignore (Stats.Quantile.quantile_sorted xs 1.5));
  Alcotest.check_raises "q below 0" (Invalid_argument "Quantile.quantile_sorted: q outside [0, 1]")
    (fun () -> ignore (Stats.Quantile.quantile_sorted xs (-0.1)))

let prop_quantile_within_range =
  QCheck2.Test.make ~name:"stats: quantile always lies within [min, max]" ~count:200
    ~print:(fun (xs, q) -> Printf.sprintf "n=%d q=%.17g" (List.length xs) q)
    QCheck2.Gen.(
      let* xs = list_size (1 -- 40) (float_range (-100.) 100.) in
      let+ q = float_range 0. 1. in
      (xs, q))
    (fun (xs, q) ->
      QCheck2.assume (xs <> []);
      let arr = Array.of_list xs in
      let v = Stats.Quantile.quantile arr q in
      let lo = Array.fold_left Float.min Float.infinity arr in
      let hi = Array.fold_left Float.max Float.neg_infinity arr in
      v >= lo && v <= hi)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "quantile boundaries" `Quick test_quantile_boundaries;
        Alcotest.test_case "quantile rejects out-of-range q" `Quick test_quantile_rejects_out_of_range;
        QCheck_alcotest.to_alcotest prop_quantile_within_range;
      ] )
