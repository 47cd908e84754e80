//go:build race

package skipblock

// A race build checksums every tensor a view lends when it is lent and again
// when it is handed back (view.go): a log statement that wrote through its
// view — into a payload the cache shares with every other reader — fails
// with an error naming the statement, where an ordinary build would leave
// the cached payload silently wrong for every later query.
const guardViews = true
