package trace

// Rollup is the flat CPU/GPU sum of FluidiCL run summaries: what -jsonout
// reports as one experiment's work distribution. Each Summary folds in by
// device kind, so every CPU of a topology counts as "the CPU". Float
// addition is not associative: the totals are the same bits only when the
// same runs are added in the same order.
type Rollup struct {
	Runs     int64
	CPUBusy  float64
	GPUBusy  float64
	BothBusy float64
	CPUWGs   int64
	GPUWGs   int64
	LinkBusy float64
	LinkWait float64
	BytesH2D int64
	BytesD2H int64
	// BytesRefresh is the subset of BytesH2D carried by "refresh"-tagged
	// coherence transfers (see DeviceMeter.BytesRefresh).
	BytesRefresh int64
}

// Add folds one run's summary into g.
func (g *Rollup) Add(s Summary) {
	cpu := s.ByKind("CPU")
	gpu := s.ByKind("GPU")
	g.Runs++
	g.CPUBusy += cpu.Busy
	g.GPUBusy += gpu.Busy
	g.BothBusy += s.BothBusy
	g.CPUWGs += cpu.WGsExecuted
	g.GPUWGs += gpu.WGsExecuted
	g.LinkBusy += cpu.LinkBusy + gpu.LinkBusy
	g.LinkWait += cpu.LinkWait + gpu.LinkWait
	g.BytesH2D += cpu.BytesH2D + gpu.BytesH2D
	g.BytesD2H += cpu.BytesD2H + gpu.BytesD2H
	g.BytesRefresh += cpu.BytesRefresh + gpu.BytesRefresh
}

// OverlapFrac returns BothBusy as a fraction of the smaller of the CPU and
// GPU busy totals (0 when either kind never computed). Unlike
// Summary.OverlapFrac, the minimum is over device kinds, not devices.
func (g Rollup) OverlapFrac() float64 {
	minBusy := g.CPUBusy
	if g.GPUBusy < minBusy {
		minBusy = g.GPUBusy
	}
	if minBusy <= 0 {
		return 0
	}
	return g.BothBusy / minBusy
}
