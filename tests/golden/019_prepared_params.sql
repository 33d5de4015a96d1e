-- Bound parameters via auto-parameterization: the text API lifts constant
-- literals into `?` plan-cache holes and re-injects the values at execute
-- time, so the repeated queries below share one prepared plan per shape and
-- differ only in bound values. The results must be exactly what the
-- literal statements say — under every harness configuration (rewrite,
-- direct serial, sfs, less) and identically through a
-- streaming Cursor (the harness replays every SELECT both ways).
CREATE TABLE car (id INTEGER, price INTEGER, mileage INTEGER, color TEXT);
INSERT INTO car VALUES
  (1, 12000, 90000, 'red'),
  (2, 15000, 60000, 'blue'),
  (3, 22000, 30000, 'red'),
  (4, 28000, 15000, 'black'),
  (5, 9000, 120000, 'white'),
  (6, 18000, 45000, 'blue');

-- One plan, three AROUND targets.
SELECT id, price FROM car PREFERRING price AROUND 15000 ORDER BY id;
SELECT id, price FROM car PREFERRING price AROUND 22000 ORDER BY id;
SELECT id, price FROM car PREFERRING price AROUND 9000 ORDER BY id;

-- WHERE literals are lifted too; same shape, different bounds.
SELECT id FROM car WHERE price < 20000
  PREFERRING LOWEST(mileage) ORDER BY id;
SELECT id FROM car WHERE price < 25000
  PREFERRING LOWEST(mileage) ORDER BY id;

-- A negative target folds its unary minus into the bound value.
SELECT id FROM car PREFERRING price AROUND -1 ORDER BY id;

-- BETWEEN bounds and POS sets as bound values.
SELECT id, price FROM car PREFERRING price BETWEEN 14000, 19000
  ORDER BY id;
SELECT id, price FROM car PREFERRING price BETWEEN 20000, 30000
  ORDER BY id;
SELECT id, color FROM car PREFERRING color IN ('red', 'black')
  ORDER BY id;
SELECT id, color FROM car PREFERRING color IN ('white')
  ORDER BY id;

-- EXPLICIT edges carry bound string values.
SELECT id, color FROM car
  PREFERRING color EXPLICIT ('red' BETTER THAN 'blue') ORDER BY id;
SELECT id, color FROM car
  PREFERRING color EXPLICIT ('white' BETTER THAN 'red') ORDER BY id;

-- Stored preferences (PDL) compose with lifted literals.
CREATE PREFERENCE frugal AS LOWEST(price);
SELECT id, price, mileage FROM car
  PREFERRING PREFERENCE frugal AND mileage AROUND 40000 ORDER BY id;
SELECT id, price, mileage FROM car
  PREFERRING PREFERENCE frugal AND mileage AROUND 100000 ORDER BY id;

-- DML between repetitions: the shared plan must always see fresh rows.
INSERT INTO car VALUES (7, 15100, 5000, 'red');
SELECT id, price FROM car PREFERRING price AROUND 15000 ORDER BY id;

-- DDL bumps the catalog version: the plan re-prepares transparently and
-- the bound execution stays correct.
CREATE INDEX car_price ON car (price);
SELECT id, price FROM car WHERE price = 15100
  PREFERRING LOWEST(mileage) ORDER BY id;
SELECT id, price FROM car WHERE price = 12000
  PREFERRING LOWEST(mileage) ORDER BY id;
