package restore

// The reference-path options, exported to the differential tests of
// package restore_test.
var (
	WithoutBatchCache = withoutBatchCache
	WithoutTrace      = withoutTrace
)
