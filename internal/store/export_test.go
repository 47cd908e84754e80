package store

// Handles for the external (store_test) tests.
var (
	FetchWorkers = fetchWorkers // the restore worker-group width
	TestPayload  = testPayload
)
