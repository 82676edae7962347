package tracker

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/rowtable"
	"repro/internal/sim"
)

// MOAT models the PRAC-based defense [Qureshi & Qazi, ASPLOS'25] used for
// the §7.1 comparison. PRAC DIMMs keep a per-row activation counter inside
// the DRAM, incremented during precharge; when a counter crosses the alert
// threshold (ETH) the device raises Alert-Back-Off (ABO), the controller
// stalls, and the device mitigates the row.
//
// PRAC's two costs appear in different places:
//
//   - The *intrinsic* slowdown — tRP stretched from 14 ns to 36 ns for the
//     counter read-modify-write — comes from running the whole system with
//     dram.PRACTimings(); it is independent of this tracker.
//   - The *extrinsic* slowdown — ABO stalls — is modelled here: counters
//     per (bank, row); on reaching ETH = T_RH/2 the sub-channel stalls for
//     aboStall and the row's victims are refreshed.
//
// For benign workloads ABO almost never fires (§7.1), so MOAT's slowdown is
// the intrinsic ≈9.7 % across all thresholds.
type MOAT struct {
	eth    uint64
	counts *rowtable.Table

	resetPeriod uint64

	// ABOs counts alert-back-off events.
	ABOs uint64
}

// aboStall is the sub-channel stall of one PRAC Alert-Back-Off, shared by
// MOAT and QPRAC's backstop (about two tRFC: 600 ns).
const aboStall Tick = 600 * sim.TicksPerNS

// MOATConfig configures the model.
type MOATConfig struct {
	TRH         int
	ResetPeriod uint64 // REFs between counter resets (scaled window)
}

// NewMOAT builds the model.
func NewMOAT(cfg MOATConfig) (*MOAT, error) {
	if cfg.TRH < 4 {
		return nil, fmt.Errorf("tracker: MOAT T_RH %d too small", cfg.TRH)
	}
	if cfg.ResetPeriod == 0 {
		cfg.ResetPeriod = memctrl.RefsPerWindow
	}
	return &MOAT{
		eth:         uint64(cfg.TRH / 2),
		counts:      rowtable.New(1 << 12),
		resetPeriod: cfg.ResetPeriod,
	}, nil
}

// OnActivate implements memctrl.Mitigator.
func (t *MOAT) OnActivate(now Tick, bank int, row uint32) memctrl.Decision {
	k := rowtable.Key(bank, row)
	if t.counts.Incr(k, 1) < t.eth {
		return memctrl.Decision{}
	}
	t.counts.Set(k, 0)
	t.ABOs++
	// The device mitigates the row during the ABO; NRR stands in for the
	// in-DRAM victim refresh so the auditor observes it, and the stall
	// models the channel-wide back-off.
	return memctrl.Decision{
		PreOps: []memctrl.Op{
			{Kind: memctrl.OpStallAll, Dur: aboStall},
			{Kind: memctrl.OpNRR, Bank: bank, Row: row},
		},
	}
}

// OnSampled implements memctrl.Mitigator.
func (t *MOAT) OnSampled(Tick, int, uint32) {}

// OnMitigations implements memctrl.Mitigator.
func (t *MOAT) OnMitigations(Tick, []dram.Mitigation) {}

// OnRefresh implements memctrl.Mitigator.
func (t *MOAT) OnRefresh(now Tick, refIndex uint64) []memctrl.Op {
	if refIndex > 0 && refIndex%t.resetPeriod == 0 {
		t.counts.Reset()
	}
	return nil
}

// StorageBits implements memctrl.Mitigator: PRAC counters live inside the
// DRAM array, not in controller SRAM.
func (t *MOAT) StorageBits() int64 { return 0 }

// ObsGauges implements obs.Gauger (structurally — no obs import needed).
func (t *MOAT) ObsGauges() map[string]float64 {
	return map[string]float64{
		"abos":         float64(t.ABOs),
		"eth":          float64(t.eth),
		"tracked-rows": float64(t.counts.Len()),
	}
}
