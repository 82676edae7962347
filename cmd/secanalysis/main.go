// Command secanalysis prints the paper's analytic security and storage
// models without running simulations: revised tracker parameters
// (Appendices A/B, Table 4), storage budgets (Tables 1 and 6, ABACuS), and
// the DRFM rate-limit impact (Table 7).
//
// Usage:
//
//	secanalysis -trh 1000
package main

import (
	"flag"
	"fmt"

	"repro/internal/security"
)

func main() {
	trh := flag.Int("trh", 2000, "double-sided Rowhammer threshold")
	flag.Parse()
	t := *trh

	fmt.Printf("Analytic models at T_RH = %d\n\n", t)

	fmt.Println("Tracker parameters (Appendices A/B, Table 4):")
	fmt.Printf("  PARA coupled:        p = 1/%.1f\n", 1/security.PARAProb(t))
	fmt.Printf("  PARA DREAM-R:        p = 1/%.1f (closed form 1/%.1f)\n",
		1/security.RevisedPARAProb(t), 1/security.RevisedPARAProbApprox(t))
	fmt.Printf("  PARA DREAM-R + ATM:  p = 1/%.1f\n", 1/security.ATMProb(t, security.ATMTH))
	fmt.Printf("  MINT coupled:        W = %d\n", security.MINTWindow(t))
	fmt.Printf("  MINT DREAM-R:        W = %d\n", security.RevisedMINTWindow(t))
	fmt.Printf("  MINT DREAM-R + ATM:  W = %d\n\n", security.ATMWindow(t, security.ATMTH))

	fmt.Println("Storage (Tables 1 and 6, §5.8):")
	fmt.Printf("  Graphene: %6.1f KB/bank (%d entries)\n",
		security.GrapheneKBPerBank(t), security.GrapheneEntries(t))
	fmt.Printf("  DREAM-C:  %6.2f KB/bank (gang %d, %d DRFMab per mitigation)\n",
		security.DreamCKBPerBank(t, 1), security.DreamCGangSize(t),
		security.DreamCGangSize(t)/security.BanksPerSubChannel)
	fmt.Printf("  ABACuS:   %6.1f KB/bank\n", security.ABACuSKBPerBank(t))
	g, _ := security.StorageRatio(security.GrapheneKBPerBank(t), security.DreamCKBPerBank(t, 1))
	a, _ := security.StorageRatio(security.ABACuSKBPerBank(t), security.DreamCKBPerBank(t, 1))
	fmt.Printf("  DREAM-C advantage: %.1fx vs Graphene, %.1fx vs ABACuS\n\n", g, a)

	w := security.MINTWindow(t)
	fmt.Println("DRFM rate limit (§6, Table 7):")
	fmt.Printf("  MINT window %d needs a %d-entry RMAQ (%.1f bytes/bank)\n",
		w, security.RMAQEntries(w), security.RMAQBytesPerBank(w))
	fmt.Printf("  Tolerated T_RH increase with RMAQ: +%d\n", security.RMAQImpact(w))
}
