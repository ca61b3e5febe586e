// Package service stands in for the real HTTP daemon: the layer
// nothing below it — coordinator, chaos — may ever import.
package service

// Kind identifies the fixture package in diagnostics.
const Kind = "service"
