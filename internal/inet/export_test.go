package inet

// CheckViews exposes the view oracle to the external tests, which drive
// the mutation paths of other packages (deployment, reindexing).
var CheckViews = checkViews
