package exp

import (
	"fmt"

	dreamcore "repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

// dreamRMINTKind builds DREAM-R (MINT) over an explicit DRFM flavour.
func dreamRMINTKind(kind dreamcore.DRFMKind) Scheme {
	return Scheme{
		Name: fmt.Sprintf("mint-dreamr-%s", lower(kind.String())),
		Build: func(env Env, sub int) (memctrl.Mitigator, error) {
			return dreamcore.NewDreamRMINT(dreamcore.DreamRMINTConfig{
				TRH:    env.TRH,
				Banks:  env.Banks,
				Kind:   kind,
				UseATM: true,
			}, env.RNG(sub))
		},
	}
}

// AblationDRFMKind contrasts DREAM-R delaying DRFMsb (8-bank stall, RLP up
// to 8) against DRFMab (32-bank stall, RLP up to 32). The paper uses DRFMsb
// for DREAM-R (§4: the stronger baseline); this ablation shows the
// trade-off: DRFMab needs ~4x fewer commands but each stalls the whole
// sub-channel 280 ns.
func AblationDRFMKind(o Options) error {
	schemes := []Scheme{
		dreamRMINTKind(dreamcore.DRFMsb),
		dreamRMINTKind(dreamcore.DRFMab),
	}
	wls := o.workloads()
	slow, raw, err := slowdownGrid(o, wls, 2000, 8, schemes)
	printSlowdownTable(o.out(), "Ablation: DREAM-R over DRFMsb vs DRFMab (MINT, T_RH=2K)",
		wls, schemeNames(schemes), slow)
	t := stats.Table{Title: "Ablation: command counts and RLP",
		Columns: []string{"design", "DRFMs", "avg RLP"}}
	for _, sc := range schemes {
		var drfms uint64
		var rlp float64
		n := 0
		for _, wl := range wls {
			r, ok := raw[wl][sc.Name]
			if !ok {
				continue
			}
			drfms += r.DRFMsbs + r.DRFMabs
			if r.RLP > 0 {
				rlp += r.RLP
				n++
			}
		}
		if n > 0 {
			rlp /= float64(n)
		}
		t.AddRow(sc.Name, fmt.Sprintf("%d", drfms), fmt.Sprintf("%.2f", rlp))
	}
	fmt.Fprintln(o.out(), t.String())
	return err
}
