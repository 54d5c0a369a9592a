package summarize

// RandomRelation exposes the package tests' random relation generator
// to the external summarize_test package.
var RandomRelation = randomRelation
