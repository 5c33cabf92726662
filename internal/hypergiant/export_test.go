package hypergiant

// CheckHostViews exposes the host-view oracle to the external tests, which
// drive the reindexing path of another package.
var CheckHostViews = checkHostViews
