package online

// WindowRows returns the feature rows name's window holds, oldest
// first, so tests outside the package can read ingested rows back.
func (p *Plane) WindowRows(name string) [][]float64 {
	st := p.state(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	var X [][]float64
	for _, s := range st.window.snapshot() {
		X = append(X, s.X)
	}
	return X
}
