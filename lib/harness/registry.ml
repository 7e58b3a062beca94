type experiment = { id : string; title : string; build : unit -> Table.t }

let all =
  [
    { id = "T1"; title = "ES consensus: decision round vs n and GST";
      build = Exp_consensus.t1 };
    { id = "T2"; title = "ES consensus under crashes";
      build = Exp_consensus.t2 };
    { id = "T3"; title = "ESS consensus: decision round vs source stabilization";
      build = Exp_consensus.t3 };
    { id = "T4"; title = "Pseudo-leader stabilization";
      build = Exp_consensus.t4 };
    { id = "T5"; title = "Weak-set add() latency in MS (rounds)";
      build = Exp_weakset.t5 };
    { id = "T6"; title = "Regular register over the weak-set (Prop. 1)";
      build = Exp_weakset.t6 };
    { id = "T7"; title = "Alg. 5: every emulated round has a source (Thm. 4)";
      build = Exp_weakset.t7 };
    { id = "T8"; title = "FLP corollary: Alg. 2 under a never-stabilizing MS schedule";
      build = Exp_impossibility.t8 };
    { id = "T9"; title = "Prop. 4: the two-run adversary vs Sigma emulators";
      build = Exp_impossibility.t9 };
    { id = "T10"; title = "What ids/known-n buy: consensus cost under full synchrony";
      build = Exp_baselines.t10 };
    { id = "T10b"; title = "Leader stabilization: anonymous pseudo-leaders vs heartbeat-Omega";
      build = Exp_baselines.t10_leaders };
    { id = "T10c"; title = "Register emulations: ABD vs weak-set register";
      build = Exp_baselines.t10_registers };
    { id = "T11"; title = "Register-based weak-sets under random interleavings";
      build = Exp_weakset.t11 };
    { id = "T12"; title = "Unsynchronized rounds (skewed runner, relay semantics)";
      build = Exp_skew.t12 };
    { id = "T13"; title = "Fuzzing coverage: random configs vs the checker";
      build = Exp_chaos.t13 };
    { id = "T14"; title = "Model checking: exhaustive schedule exploration, symmetry-reduced";
      build = Exp_mc.t14 };
    { id = "T15"; title = "Dynamic graphs and churn: verdict vs stability window";
      build = Exp_mc.t15 };
    { id = "T16"; title = "Multi-shot service saturation: throughput vs offered load";
      build = Exp_load.t16 };
    { id = "F1"; title = "Decision-round distribution";
      build = Exp_consensus.f1 };
    { id = "F2"; title = "ESS message growth per round";
      build = Exp_consensus.f2 };
    { id = "A1"; title = "Ablation: the non-leader proposal machinery of Alg. 3";
      build = Exp_ablations.a1 };
    { id = "A2"; title = "Model sensitivity: sources timely to correct-only vs to all alive";
      build = Exp_ablations.a2 };
    { id = "A3"; title = "Ablation: counter tables merged with max instead of min";
      build = Exp_ablations.a3 };
  ]

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all
