package stats

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion versions RunResult's JSON encoding. Consumers (the harness
// journal, the disk cache, dreamd clients, external tooling) key on it;
// bump it on any incompatible rename or semantic change.
const SchemaVersion = 1

// runResultJSON is the stable wire form of RunResult: kebab-case names and
// an explicit schema_version, decoupled from Go field naming so internal
// renames can never silently break downstream parsers.
type runResultJSON struct {
	SchemaVersion int    `json:"schema_version"`
	Scheme        string `json:"scheme"`
	Workload      string `json:"workload"`
	TRH           int    `json:"trh"`

	CoreIPC     []float64 `json:"core-ipc,omitempty"`
	CoreRetired []int64   `json:"core-retired,omitempty"`

	SimTimeNS float64 `json:"sim-time-ns"`

	Activations uint64  `json:"activations"`
	RowHits     uint64  `json:"row-hits"`
	Reads       uint64  `json:"reads"`
	Writes      uint64  `json:"writes"`
	Refreshes   uint64  `json:"refreshes"`
	NRRs        uint64  `json:"nrrs"`
	DRFMsbs     uint64  `json:"drfmsbs"`
	DRFMabs     uint64  `json:"drfmabs"`
	RLP         float64 `json:"rlp"`
	Mitigations uint64  `json:"mitigations"`
	AvgReadNS   float64 `json:"avg-read-ns"`
	BWUtil      float64 `json:"bw-util"`
	MPKI        float64 `json:"mpki"`
	StorageBits int64   `json:"storage-bits"`

	MaxAggressor uint64 `json:"max-aggressor"`
	MaxVictim    uint64 `json:"max-victim"`

	RowsTouched uint64 `json:"rows-touched"`
	Rows1to4    uint64 `json:"rows-1to4"`
	Rows5Plus   uint64 `json:"rows-5plus"`
}

func (r RunResult) wire() runResultJSON {
	return runResultJSON{
		SchemaVersion: SchemaVersion,
		Scheme:        r.Scheme,
		Workload:      r.Workload,
		TRH:           r.TRH,
		CoreIPC:       r.CoreIPC,
		CoreRetired:   r.CoreRetired,
		SimTimeNS:     r.SimTimeNS,
		Activations:   r.Activations,
		RowHits:       r.RowHits,
		Reads:         r.Reads,
		Writes:        r.Writes,
		Refreshes:     r.Refreshes,
		NRRs:          r.NRRs,
		DRFMsbs:       r.DRFMsbs,
		DRFMabs:       r.DRFMabs,
		RLP:           r.RLP,
		Mitigations:   r.Mitigations,
		AvgReadNS:     r.AvgReadNS,
		BWUtil:        r.BWUtil,
		MPKI:          r.MPKI,
		StorageBits:   r.StorageBits,
		MaxAggressor:  r.MaxAggressor,
		MaxVictim:     r.MaxVictim,
		RowsTouched:   r.RowsTouched,
		Rows1to4:      r.Rows1to4,
		Rows5Plus:     r.Rows5Plus,
	}
}

// MarshalJSON implements the stable versioned encoding.
func (r RunResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.wire())
}

// UnmarshalJSON accepts the versioned encoding. A missing schema_version is
// read as version 1 (pre-versioning writers never existed in this format);
// a version above SchemaVersion is rejected so old readers fail loudly
// instead of dropping fields they do not know.
func (r *RunResult) UnmarshalJSON(data []byte) error {
	var w runResultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.SchemaVersion > SchemaVersion {
		return fmt.Errorf("stats: RunResult schema_version %d newer than supported %d",
			w.SchemaVersion, SchemaVersion)
	}
	*r = RunResult{
		Scheme:       w.Scheme,
		Workload:     w.Workload,
		TRH:          w.TRH,
		CoreIPC:      w.CoreIPC,
		CoreRetired:  w.CoreRetired,
		SimTimeNS:    w.SimTimeNS,
		Activations:  w.Activations,
		RowHits:      w.RowHits,
		Reads:        w.Reads,
		Writes:       w.Writes,
		Refreshes:    w.Refreshes,
		NRRs:         w.NRRs,
		DRFMsbs:      w.DRFMsbs,
		DRFMabs:      w.DRFMabs,
		RLP:          w.RLP,
		Mitigations:  w.Mitigations,
		AvgReadNS:    w.AvgReadNS,
		BWUtil:       w.BWUtil,
		MPKI:         w.MPKI,
		StorageBits:  w.StorageBits,
		MaxAggressor: w.MaxAggressor,
		MaxVictim:    w.MaxVictim,
		RowsTouched:  w.RowsTouched,
		Rows1to4:     w.Rows1to4,
		Rows5Plus:    w.Rows5Plus,
	}
	return nil
}

// Diff returns the numeric fields where r and other disagree, keyed by the
// wire (kebab-case) field name, with values r − other. Per-core slices are
// compared as sums under "ipc-sum" and "retired-sum". Equal fields are
// omitted, so an empty map means numerically identical results — the
// metrics-equivalence tests assert exactly that.
func (r RunResult) Diff(other RunResult) map[string]float64 {
	d := make(map[string]float64)
	add := func(key string, a, b float64) {
		if a != b {
			d[key] = a - b
		}
	}
	var retA, retB int64
	for _, v := range r.CoreRetired {
		retA += v
	}
	for _, v := range other.CoreRetired {
		retB += v
	}
	add("ipc-sum", r.IPCSum(), other.IPCSum())
	add("retired-sum", float64(retA), float64(retB))
	add("sim-time-ns", r.SimTimeNS, other.SimTimeNS)
	add("activations", float64(r.Activations), float64(other.Activations))
	add("row-hits", float64(r.RowHits), float64(other.RowHits))
	add("reads", float64(r.Reads), float64(other.Reads))
	add("writes", float64(r.Writes), float64(other.Writes))
	add("refreshes", float64(r.Refreshes), float64(other.Refreshes))
	add("nrrs", float64(r.NRRs), float64(other.NRRs))
	add("drfmsbs", float64(r.DRFMsbs), float64(other.DRFMsbs))
	add("drfmabs", float64(r.DRFMabs), float64(other.DRFMabs))
	add("rlp", r.RLP, other.RLP)
	add("mitigations", float64(r.Mitigations), float64(other.Mitigations))
	add("avg-read-ns", r.AvgReadNS, other.AvgReadNS)
	add("bw-util", r.BWUtil, other.BWUtil)
	add("mpki", r.MPKI, other.MPKI)
	add("storage-bits", float64(r.StorageBits), float64(other.StorageBits))
	add("max-aggressor", float64(r.MaxAggressor), float64(other.MaxAggressor))
	add("max-victim", float64(r.MaxVictim), float64(other.MaxVictim))
	add("rows-touched", float64(r.RowsTouched), float64(other.RowsTouched))
	add("rows-1to4", float64(r.Rows1to4), float64(other.Rows1to4))
	add("rows-5plus", float64(r.Rows5Plus), float64(other.Rows5Plus))
	return d
}
