package security

import "fmt"

// Storage calculators for the paper's Tables 1 and 6 and the §5.8 ABACuS
// comparison. All sizes are per bank unless noted; the baseline geometry is
// 32 banks per sub-channel, 128 K rows per bank, 17-bit row addresses. The
// simulated trackers size their tables and storage from the same constants
// and formulas.

// Baseline geometry constants.
const (
	BanksPerSubChannel = 32
	RowsPerBank        = 128 * 1024
	RowAddrBits        = 17
	// MaxACTsPerWindow is one bank's activation capacity per tREFW after
	// refresh overheads, ≈ (tREFW − 8192·tRFC)/tRC: the 600 K "maximum safe
	// value" of §5.8's footnote. Graphene's entry count is this over T_TH.
	MaxACTsPerWindow = 600_000
)

func ceilLog2(v int) int {
	n := 1
	x := 1
	for x < v {
		x <<= 1
		n++
	}
	if x == v {
		n--
	}
	if n < 1 {
		n = 1
	}
	return n
}

// GrapheneEntries reproduces Table 1's entry counts: MaxACTsPerWindow
// divided by the tracker threshold T_RH/2 (4800/2400/1200 at 250/500/1000).
func GrapheneEntries(trh int) int { return MaxACTsPerWindow / (trh / 2) }

// GrapheneKBPerBank reproduces Table 1's per-bank storage: each entry holds
// a 17-bit row tag plus a counter wide enough for T_RH/2.
func GrapheneKBPerBank(trh int) float64 {
	entries := GrapheneEntries(trh)
	bits := entries * (RowAddrBits + ceilLog2(trh/2+1))
	return float64(bits) / 8 / 1024
}

// DreamCConfigRow is one row of Table 6.
type DreamCConfigRow struct {
	TRH          int
	GangSize     int
	NumDRFMab    int
	DreamCKBBank float64
	GraphKBBank  float64
}

// DreamCGangSize returns Table 6's gang size (32·V with V = 1/2/4/8 for
// T_RH = 125/250/500/1000).
func DreamCGangSize(trh int) int {
	switch {
	case trh >= 1000:
		return 256
	case trh >= 500:
		return 128
	case trh >= 250:
		return 64
	default:
		return 32
	}
}

// DreamCKBPerBank reproduces Table 6: DCT entries = 128 K / V, each a
// counter wide enough for T_RH/2, divided across the 32 banks (3 KB/bank at
// T_RH = 125 down to 0.56 KB/bank at 1000).
func DreamCKBPerBank(trh int, entryMult int) float64 {
	if entryMult < 1 {
		entryMult = 1
	}
	v := DreamCGangSize(trh) / BanksPerSubChannel
	entries := RowsPerBank / v * entryMult
	bits := entries * ceilLog2(trh/2+1)
	return float64(bits) / 8 / 1024 / BanksPerSubChannel
}

// DreamCTable6 builds the full Table 6.
func DreamCTable6() []DreamCConfigRow {
	var rows []DreamCConfigRow
	for _, trh := range []int{125, 250, 500, 1000} {
		gang := DreamCGangSize(trh)
		rows = append(rows, DreamCConfigRow{
			TRH:          trh,
			GangSize:     gang,
			NumDRFMab:    gang / BanksPerSubChannel,
			DreamCKBBank: DreamCKBPerBank(trh, 1),
			GraphKBBank:  GrapheneKBPerBank(trh),
		})
	}
	return rows
}

// ABACuSKBPerBank reproduces §5.8's storage: one entry per RowID holding a
// counter for T_RH/2 plus a 32-bit Sibling Activation Vector, shared by the
// sub-channel (19 KB/bank at T_RH = 125).
func ABACuSKBPerBank(trh int) float64 {
	bits := RowsPerBank * (ceilLog2(trh/2+1) + BanksPerSubChannel)
	return float64(bits) / 8 / 1024 / BanksPerSubChannel
}

// StorageRatio reports a/b, the headline "Nx lower storage" comparisons
// (Graphene/DREAM-C ≈ 8x at T_RH = 500; ABACuS/DREAM-C ≈ 6.3x at 125).
func StorageRatio(a, b float64) (float64, error) {
	if b <= 0 {
		return 0, fmt.Errorf("security: non-positive denominator %v", b)
	}
	return a / b, nil
}

// --- post-DREAM trackers (PAPERS.md) -----------------------------------------
//
// DAPPER and the probabilistic policy family are sized to DREAM-C's Table-6
// budget so the postdream comparison figure is equal-storage by
// construction; QPRAC inherits PRAC's in-DRAM counters and pays only a
// per-bank priority queue.

// DAPPEREntries sizes DAPPER's per-bank space-saving table to DREAM-C's
// per-bank budget at the same threshold: entries = budget-bits / entry-bits,
// with a 17-bit row tag plus a T_RH/2-wide counter per entry.
func DAPPEREntries(trh int) int {
	budgetBits := DreamCKBPerBank(trh, 1) * 8 * 1024
	entryBits := RowAddrBits + ceilLog2(trh/2+1)
	n := int(budgetBits) / entryBits
	if n < 1 {
		n = 1
	}
	return n
}

// DAPPERKBPerBank reports the storage the DAPPEREntries sizing actually
// spends — by construction at most DreamCKBPerBank(trh, 1).
func DAPPERKBPerBank(trh int) float64 {
	bits := DAPPEREntries(trh) * (RowAddrBits + ceilLog2(trh/2+1))
	return float64(bits) / 8 / 1024
}

// QPRACQueueDepth is the per-bank priority-queue capacity the experiments
// use.
const QPRACQueueDepth = 4

// QPRACKBPerBank reports QPRAC's controller SRAM: the per-bank priority
// queue only (row tag + ETH-wide counter per slot); the activation counters
// are PRAC rows inside the DRAM array.
func QPRACKBPerBank(trh int) float64 {
	bits := QPRACQueueDepth * (RowAddrBits + ceilLog2(trh/2+1))
	return float64(bits) / 8 / 1024
}

// ProbEntries sizes the probabilistic policy family's per-bank table to the
// same DREAM-C budget as DAPPER (the policies' point is doing more with the
// same small table, not using a different one).
func ProbEntries(trh int) int { return DAPPEREntries(trh) }

// ProbKBPerBank reports the probabilistic table's storage spend.
func ProbKBPerBank(trh int) float64 { return DAPPERKBPerBank(trh) }

// ProbEvasionProb bounds the probability that an aggressor row dodges
// tracking through n independent admission flips at probability p: (1-p)^n.
// With p = 1/8 and the T_RH/2 activations a full attack needs, the evasion
// probability is astronomically small — the policy's security argument.
func ProbEvasionProb(p float64, n int) float64 {
	if p <= 0 || p > 1 || n < 0 {
		return 1
	}
	out := 1.0
	q := 1 - p
	for i := 0; i < n; i++ {
		out *= q
		if out == 0 {
			break
		}
	}
	return out
}

// ATMBitsPerBank is the §4.4 ATM register: a 5-bit counter for ATMTH, the
// mirrored DAR row address and a valid bit.
const ATMBitsPerBank = 5 + RowAddrBits + 1

// RMAQBitsPerEntry is one §6.1 RMAQ entry: a valid bit, a row address and a
// 2-bit tREFI id (20 bits).
const RMAQBitsPerEntry = 1 + RowAddrBits + 2

// ATMBytesPerBank is the §4.4 ATM cost (~3 bytes per bank).
func ATMBytesPerBank() float64 { return float64(ATMBitsPerBank) / 8 }

// RMAQBytesPerBank is the §6.1 RMAQ cost for a MINT window (5–15 bytes).
func RMAQBytesPerBank(w int) float64 {
	return float64(RMAQEntries(w)*RMAQBitsPerEntry) / 8
}
