module bluedove/benchmark

go 1.24

require bluedove v0.0.0

replace bluedove => ../
