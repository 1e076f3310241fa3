package micrograph

// DatasetHash exposes datasetHash to the external test package, which
// builds datasets through workload's named specs.
var DatasetHash = datasetHash
