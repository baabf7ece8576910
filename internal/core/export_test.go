package core

// Hooks for the external test package: the tests in oracle_test.go compare
// core against internal/oracle, which imports core, so they cannot live in
// package core itself.
var (
	SharedDataset         = dataset
	EquivalencePredicates = equivalencePredicates
	ProfileFields         = profileFields
)
