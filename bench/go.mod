module hhgb/bench

go 1.24

require hhgb v0.0.0

replace hhgb => ../
