package raceflag

// SkipBudgets skips an allocation- or heap-budget test when the race
// detector is active. t is a *testing.T or *testing.B; taking the two
// methods it needs keeps package testing out of this package's imports.
func SkipBudgets(t interface {
	Helper()
	Skip(args ...any)
}) {
	if Enabled {
		t.Helper()
		t.Skip("allocation and heap budgets are not meaningful under the race detector")
	}
}
