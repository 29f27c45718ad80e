"""E9: microarchitecture-level fault-injection campaigns (reliability).

Regenerates the gem5-MARVEL reliability analysis: transient bit flips are
injected into the CPU register file and into main memory while the GeMM
workload runs, and every run is classified as masked / SDC / crash / hang.
"""

from repro.eval import format_table, make_gemm_workload
from repro.system import PhotonicSoC, run_fault_campaign

N_INJECTIONS = 15


def _campaigns():
    weights, inputs = make_gemm_workload(4, 4, 3, rng=0)
    golden = weights @ inputs

    def workload(soc):
        return soc.run_cpu_gemm(weights, inputs)

    campaigns = {}
    for target in ("cpu_register", "main_memory"):
        campaigns[target] = run_fault_campaign(
            workload, PhotonicSoC, golden,
            n_injections=N_INJECTIONS, target=target, fault_type="transient", rng=3,
        )
    return campaigns


def test_bench_fault_injection_campaign():
    campaigns = _campaigns()
    rows = []
    for target, campaign in campaigns.items():
        counts = campaign.counts()
        rows.append([
            target, campaign.n_runs, counts["masked"], counts["sdc"],
            counts["crash"], counts["hang"],
        ])
    print("\n[E9] transient fault injection (CPU GeMM workload)")
    print(format_table(
        ["target", "injections", "masked", "SDC", "crash", "hang"], rows
    ))
    for target, campaign in campaigns.items():
        # Every injection is classified, and the taxonomy is exhaustive.
        assert sum(campaign.counts().values()) == N_INJECTIONS
        # Transient single-bit faults are mostly masked (the usual result of
        # register/memory fault campaigns), but not all of them.
        assert campaign.rate("masked") >= 0.3
    combined_unmasked = sum(
        campaign.rate("sdc") + campaign.rate("crash") + campaign.rate("hang")
        for campaign in campaigns.values()
    )
    assert combined_unmasked > 0.0
